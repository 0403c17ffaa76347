// Package swf reads and writes the Standard Workload Format (SWF), the
// de-facto interchange format for batch-system traces (Feitelson's Parallel
// Workloads Archive). Supporting SWF lets the simulator replay public site
// traces in place of the synthetic generator, and export generated workloads
// for use by other tools.
//
// An SWF file holds optional ';'-prefixed header comments followed by one
// record per line with 18 whitespace-separated numeric fields. Unknown or
// inapplicable fields are -1 by convention.
package swf

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Record is one SWF job entry. Field names follow the SWF specification.
type Record struct {
	JobNumber      int
	SubmitTime     float64 // seconds since trace start
	WaitTime       float64 // seconds; -1 unknown
	RunTime        float64 // seconds; -1 unknown
	UsedProcs      int
	AvgCPUTime     float64
	UsedMemoryKB   float64
	ReqProcs       int
	ReqTime        float64
	ReqMemoryKB    float64
	Status         int // 1 completed, 0 failed, 5 cancelled, -1 unknown
	UserID         int
	GroupID        int
	ExecutableID   int
	QueueNumber    int
	PartitionID    int
	PrecedingJob   int
	ThinkTimeAfter float64
}

// NumFields is the per-record field count mandated by the SWF spec.
const NumFields = 18

// Header carries the trace's comment lines (without the leading ';').
type Header struct {
	Comments []string
}

// Trace is a parsed SWF file.
type Trace struct {
	Header  Header
	Records []Record
}

// Parse reads an SWF stream. Malformed lines produce an error naming the
// line number; blank lines are skipped.
func Parse(r io.Reader) (*Trace, error) {
	t := &Trace{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ";") {
			t.Header.Comments = append(t.Header.Comments, strings.TrimSpace(line[1:]))
			continue
		}
		rec, err := parseRecord(line)
		if err != nil {
			return nil, fmt.Errorf("swf: line %d: %w", lineNo, err)
		}
		t.Records = append(t.Records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("swf: read: %w", err)
	}
	return t, nil
}

func parseRecord(line string) (Record, error) {
	fields := strings.Fields(line)
	if len(fields) != NumFields {
		return Record{}, fmt.Errorf("%d fields, want %d", len(fields), NumFields)
	}
	f := make([]float64, NumFields)
	for i, s := range fields {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Record{}, fmt.Errorf("field %d %q: %w", i+1, s, err)
		}
		f[i] = v
	}
	return Record{
		JobNumber:      int(f[0]),
		SubmitTime:     f[1],
		WaitTime:       f[2],
		RunTime:        f[3],
		UsedProcs:      int(f[4]),
		AvgCPUTime:     f[5],
		UsedMemoryKB:   f[6],
		ReqProcs:       int(f[7]),
		ReqTime:        f[8],
		ReqMemoryKB:    f[9],
		Status:         int(f[10]),
		UserID:         int(f[11]),
		GroupID:        int(f[12]),
		ExecutableID:   int(f[13]),
		QueueNumber:    int(f[14]),
		PartitionID:    int(f[15]),
		PrecedingJob:   int(f[16]),
		ThinkTimeAfter: f[17],
	}, nil
}

// Write serializes a trace, header comments first.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	for _, c := range t.Header.Comments {
		if _, err := fmt.Fprintf(bw, "; %s\n", c); err != nil {
			return fmt.Errorf("swf: write header: %w", err)
		}
	}
	for _, r := range t.Records {
		if _, err := fmt.Fprintf(bw,
			"%d %s %s %s %d %s %s %d %s %s %d %d %d %d %d %d %d %s\n",
			r.JobNumber, num(r.SubmitTime), num(r.WaitTime), num(r.RunTime),
			r.UsedProcs, num(r.AvgCPUTime), num(r.UsedMemoryKB),
			r.ReqProcs, num(r.ReqTime), num(r.ReqMemoryKB),
			r.Status, r.UserID, r.GroupID, r.ExecutableID,
			r.QueueNumber, r.PartitionID, r.PrecedingJob, num(r.ThinkTimeAfter),
		); err != nil {
			return fmt.Errorf("swf: write record %d: %w", r.JobNumber, err)
		}
	}
	return bw.Flush()
}

// num renders a float compactly: integral values without a decimal point
// (the archive's own style), others with full precision.
func num(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
