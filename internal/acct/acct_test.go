package acct

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/job"
)

func doneJob(t *testing.T, id int64, appName string, submit, start, end, runtime float64) *job.Job {
	t.Helper()
	a, err := app.ByName(appName)
	if err != nil {
		t.Fatal(err)
	}
	j := &job.Job{
		ID: cluster.JobID(id), Name: appName, App: a, Nodes: 2,
		ReqWalltime: des.Duration(end-start) + 1000, TrueRuntime: des.Duration(runtime),
		Submit: des.Time(submit),
	}
	j.Start(des.Time(start))
	if end-start > runtime {
		j.SetRate(des.Time(start), runtime/(end-start))
	}
	j.Finish(des.Time(end))
	return j
}

func TestFromJobFinished(t *testing.T) {
	j := doneJob(t, 1, "minife", 0, 100, 300, 200)
	r := FromJob(j)
	if r.State != "FINISHED" || r.Start != 100 || r.End != 300 {
		t.Fatalf("record = %+v", r)
	}
	if r.Work != 2*200 {
		t.Fatalf("work = %g, want 400", r.Work)
	}
	if r.Stretch != 1 {
		t.Fatalf("stretch = %g", r.Stretch)
	}
}

func TestFromJobKilled(t *testing.T) {
	a, _ := app.ByName("minimd")
	j := &job.Job{ID: 2, Name: "k", App: a, Nodes: 1,
		ReqWalltime: 100, TrueRuntime: 100, Submit: 0}
	j.Start(0)
	j.SetRate(0, 0.5)
	j.Kill(100)
	r := FromJob(j)
	if r.State != "KILLED" || r.Work != 0 {
		t.Fatalf("killed record = %+v", r)
	}
}

func TestFromJobCancelled(t *testing.T) {
	a, _ := app.ByName("amg")
	j := &job.Job{ID: 3, Name: "c", App: a, Nodes: 1,
		ReqWalltime: 100, TrueRuntime: 50, Submit: 0}
	j.Cancel(10)
	r := FromJob(j)
	if r.State != "CANCELLED" || r.End != 10 {
		t.Fatalf("cancelled record = %+v", r)
	}
}

func TestFromJobPanicsOnRunning(t *testing.T) {
	a, _ := app.ByName("amg")
	j := &job.Job{ID: 4, Name: "r", App: a, Nodes: 1,
		ReqWalltime: 100, TrueRuntime: 50, Submit: 0}
	j.Start(0)
	defer func() {
		if recover() == nil {
			t.Fatal("running job accounted")
		}
	}()
	FromJob(j)
}

func TestRoundTrip(t *testing.T) {
	jobs := []*job.Job{
		doneJob(t, 3, "minife", 0, 10, 110, 100),
		doneJob(t, 1, "minimd", 5, 20, 160, 100), // stretched 1.4
	}
	records := FromJobs(jobs)
	// Sorted by ID.
	if records[0].JobID != 1 || records[1].JobID != 3 {
		t.Fatalf("records not sorted: %+v", records)
	}
	var buf bytes.Buffer
	if err := Write(&buf, records); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("read %d records", len(back))
	}
	for i := range records {
		if back[i] != records[i] {
			t.Fatalf("record %d changed:\n in: %+v\nout: %+v", i, records[i], back[i])
		}
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := Read(strings.NewReader("not json\n")); err == nil {
		t.Fatal("malformed line accepted")
	}
	// Blank lines are fine.
	recs, err := Read(strings.NewReader("\n\n"))
	if err != nil || len(recs) != 0 {
		t.Fatalf("blank-line read = %v, %v", recs, err)
	}
}

func TestSummary(t *testing.T) {
	jobs := []*job.Job{
		doneJob(t, 1, "minife", 0, 10, 110, 100),
		doneJob(t, 2, "minife", 0, 50, 150, 100),
		doneJob(t, 3, "minimd", 0, 0, 140, 100), // stretched
	}
	tbl := Summary(FromJobs(jobs))
	out := tbl.String()
	if !strings.Contains(out, "minife") || !strings.Contains(out, "minimd") {
		t.Fatalf("summary missing apps:\n%s", out)
	}
	// minife row: 2 jobs, wait mean (10+50)/2 = 30.
	for _, row := range tbl.Rows {
		if row[0] == "minife" {
			if row[1] != "2" {
				t.Fatalf("minife count = %s", row[1])
			}
			if row[4] != "30" {
				t.Fatalf("minife wait mean = %s", row[4])
			}
		}
	}
}

// An application none of whose jobs finished has no wait or stretch mean:
// the cells read n/a, not a made-up 0, and its node-hours are zero because
// only FINISHED work is delivered.
func TestSummaryNoFinishedJobs(t *testing.T) {
	records := []Record{
		{JobID: 1, App: "minife", State: "FINISHED", Submit: 0, Start: 20, End: 120, Stretch: 1, Work: 7200},
		{JobID: 2, App: "minimd", State: "CANCELLED", Submit: 0},
		{JobID: 3, App: "snap", State: "KILLED", Submit: 0, Start: 5, End: 100, Work: 3600},
	}
	want := map[string][3]string{
		"minife": {"20", "1.000", "2.0"},
		"minimd": {"n/a", "n/a", "0.0"},
		"snap":   {"n/a", "n/a", "0.0"},
	}
	tbl := Summary(records)
	if len(tbl.Rows) != len(want) {
		t.Fatalf("%d rows, want %d:\n%s", len(tbl.Rows), len(want), tbl.String())
	}
	for _, row := range tbl.Rows {
		if got := [3]string{row[4], row[5], row[6]}; got != want[row[0]] {
			t.Errorf("%s: wait, stretch, node-hours = %q, want %q", row[0], got, want[row[0]])
		}
	}
}
