// Command acct-report analyzes a JSON-lines accounting file written by
// nodeshare-sim -acct: per-application aggregates plus overall counts.
//
//	nodeshare-sim -jobs 200 -acct run.acct
//	acct-report run.acct
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/acct"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "acct-report:", err)
		os.Exit(1)
	}
}

// run reads the one accounting file args names and writes its report.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("acct-report", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errors.New("usage: acct-report <file.acct>")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	records, err := acct.Read(f)
	if err != nil {
		return err
	}

	finished, killed, cancelled, shared := 0, 0, 0, 0
	for _, r := range records {
		switch r.State {
		case "FINISHED":
			finished++
		case "KILLED":
			killed++
		case "CANCELLED":
			cancelled++
		}
		if r.Shared {
			shared++
		}
	}
	fmt.Fprintf(stdout, "%d records: %d finished, %d killed, %d cancelled; %d ran shared\n\n",
		len(records), finished, killed, cancelled, shared)
	return acct.Summary(records).Render(stdout)
}
