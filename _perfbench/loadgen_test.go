package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"fedsched/internal/serve"
)

// fixedDelayAPI is a job API whose every job completes a fixed delay
// after its submission arrives.
type fixedDelayAPI struct {
	delay time.Duration
	mu    sync.Mutex
	born  map[string]time.Time
}

func (a *fixedDelayAPI) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := serve.JobStatus{State: serve.StateQueued}
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/jobs":
		st.ID = fmt.Sprintf("job-%d", len(a.born)+1)
		a.born[st.ID] = time.Now()
		w.WriteHeader(http.StatusAccepted)
	case r.Method == http.MethodGet:
		st.ID = r.URL.Path[len("/jobs/"):]
		born, ok := a.born[st.ID]
		if !ok {
			http.NotFound(w, r)
			return
		}
		st.State = serve.StateRunning
		if time.Since(born) >= a.delay {
			st.State = serve.StateCompleted
		}
	default:
		http.Error(w, "unexpected", http.StatusBadRequest)
		return
	}
	json.NewEncoder(w).Encode(st)
}

func runFixedDelay(t *testing.T, delay, poll time.Duration, arr []arrival, stall func(int)) *loadResult {
	t.Helper()
	srv := httptest.NewServer(&fixedDelayAPI{delay: delay, born: map[string]time.Time{}})
	defer srv.Close()
	g := &loadgen{client: newClient(smConns), base: srv.URL, bodies: [][]byte{[]byte(`{}`)}, poll: poll, timeout: 30 * time.Second, beforeSend: stall}
	res, err := g.run(arr)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestLoadgenLatencyIsServiceDelay checks that a job's measured latency
// equals the service delay within the poll interval, also for jobs that
// finish while later ones are still being submitted.
func TestLoadgenLatencyIsServiceDelay(t *testing.T) {
	const delay, poll = 150 * time.Millisecond, 20 * time.Millisecond
	arr := make([]arrival, 12)
	for i := range arr {
		arr[i].at = time.Duration(i) * 60 * time.Millisecond // spans longer than delay
	}
	res := runFixedDelay(t, delay, poll, arr, nil)
	for i, j := range res.jobs {
		if j.rejected || j.status.State != serve.StateCompleted {
			t.Fatalf("job %d: %+v", i, j.status)
		}
		// The submit's own round trip rides on top of the poll interval.
		slack := poll + j.accepted.Sub(j.scheduled) + 5*time.Millisecond
		if l := j.latency(); l < delay || l > delay+slack {
			t.Errorf("job %d latency %v, want %v within %v", i, l, delay, slack)
		}
	}
	if res.genLagMax > 20*time.Millisecond {
		t.Errorf("unstalled generator ran %v late", res.genLagMax)
	}
	if len(res.submitMs) != len(arr) || len(res.statusMs) == 0 {
		t.Errorf("%d submit and %d status timings for %d jobs", len(res.submitMs), len(res.statusMs), len(arr))
	}
}

// TestLoadgenReportsStall checks that a stalled generator shows its
// lateness, and that latency still counts from the scheduled time.
func TestLoadgenReportsStall(t *testing.T) {
	const delay, poll, stall = 50 * time.Millisecond, 10 * time.Millisecond, 200 * time.Millisecond
	arr := make([]arrival, 6)
	for i := range arr {
		arr[i].at = time.Duration(i) * 20 * time.Millisecond
	}
	res := runFixedDelay(t, delay, poll, arr, func(i int) {
		if i == 2 {
			time.Sleep(stall)
		}
	})
	if res.genLagMax < stall-40*time.Millisecond {
		t.Errorf("generator lag %v after a %v stall", res.genLagMax, stall)
	}
	for i := 2; i < len(arr); i++ {
		if l := res.jobs[i].latency(); l < delay+stall-time.Duration(i-2)*20*time.Millisecond-40*time.Millisecond {
			t.Errorf("job %d behind the stall: latency %v does not include its wait", i, l)
		}
	}
}

func TestArrivals(t *testing.T) {
	a := arrivals(3, 4, 10*time.Second, 0, 4)
	if !reflect.DeepEqual(a, arrivals(3, 4, 10*time.Second, 0, 4)) {
		t.Fatal("same seed, different schedule")
	}
	b := arrivals(4, 4, 10*time.Second, 0, 4)
	if reflect.DeepEqual(a, b) {
		t.Fatal("different seeds, same schedule")
	}
	if len(a) != 40 || len(b) != 40 {
		t.Fatalf("%d and %d arrivals, want rate x window = 40", len(a), len(b))
	}
	// Stratified gaps: every seed offers the same total span.
	if d := a[len(a)-1].at - b[len(b)-1].at; d > time.Millisecond || d < -time.Millisecond {
		t.Errorf("seeds 3 and 4 end %v apart", d)
	}
	if end := a[len(a)-1].at; end < 9*time.Second || end > 11*time.Second {
		t.Errorf("40 arrivals at 4/s end at %v", end)
	}
	counts := make([]int, 4)
	for i, x := range a {
		if i > 0 && x.at <= a[i-1].at {
			t.Fatalf("arrival %d at %v, previous %v", i, x.at, a[i-1].at)
		}
		counts[x.class]++
	}
	for c, n := range counts {
		if n != 10 {
			t.Errorf("class %d offered %d of %d times", c, n, len(a))
		}
	}
	if n := len(arrivals(3, 4, time.Second, 100, 4)); n != 100 {
		t.Errorf("minJobs 100 gave %d arrivals", n)
	}
}
