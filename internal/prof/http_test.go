package prof

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/trace"
)

func get(t *testing.T, h *httptest.Server, path string) (int, string, string) {
	t.Helper()
	resp, err := h.Client().Get(h.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
}

func TestHandlerEndpoints(t *testing.T) {
	p := New()
	v := newThread(p, "T")
	v.pc = 2
	v.tick(40)
	v.block("M", 3)
	srv := httptest.NewServer(Handler(p, func(w io.Writer) {
		fmt.Fprintln(w, "rvm_extra_metric 1")
	}))
	defer srv.Close()

	code, body, ct := get(t, srv, "/metrics")
	if code != 200 || !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics: code %d, content-type %q", code, ct)
	}
	for _, want := range []string{
		`rvm_profile_ticks_total{dim="work"} 40`,
		`rvm_profile_ticks_total{dim="block"} 3`,
		`rvm_profile_ticks_total{dim="waste"} 0`,
		"rvm_extra_metric 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body, _ = get(t, srv, "/debug/pprof/")
	if code != 200 {
		t.Fatalf("/debug/pprof/ index: code %d", code)
	}
	for _, d := range Dims() {
		if !strings.Contains(body, "/debug/pprof/"+d.String()) {
			t.Errorf("index missing link to %s:\n%s", d, body)
		}
	}

	code, body, _ = get(t, srv, "/debug/pprof/work")
	if code != 200 {
		t.Fatalf("/debug/pprof/work: code %d", code)
	}
	zr, err := gzip.NewReader(bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("work profile download is not gzipped: %v", err)
	}
	if _, err := io.ReadAll(zr); err != nil {
		t.Fatalf("work profile gzip stream: %v", err)
	}

	code, body, _ = get(t, srv, "/debug/pprof/work.folded")
	if code != 200 || !strings.Contains(body, "T@2 40") {
		t.Errorf("/debug/pprof/work.folded: code %d body %q", code, body)
	}

	if code, _, _ = get(t, srv, "/debug/pprof/bogus"); code != 404 {
		t.Errorf("unknown profile: code %d, want 404", code)
	}
	if code, _, _ = get(t, srv, "/nope"); code != 404 {
		t.Errorf("unknown path: code %d, want 404", code)
	}
}

// TestConcurrentScrape exercises the mid-run contract under the race
// detector: one goroutine plays the VM (ticking, rolling back), others
// scrape every endpoint concurrently.
func TestConcurrentScrape(t *testing.T) {
	p := New()
	srv := httptest.NewServer(Handler(p, nil))
	defer srv.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		v := newThread(p, "vm")
		for i := 0; i < 500; i++ {
			v.pc = i % 17
			v.enter("A")
			v.tick(2)
			if i%3 == 0 {
				v.rollback("A")
			} else {
				v.exit("A")
			}
			v.block("M", 1)
			p.Emit(trace.Event{Kind: trace.SchedIdle, N: 1})
		}
	}()

	var wg sync.WaitGroup
	for _, path := range []string{"/metrics", "/debug/pprof/work", "/debug/pprof/waste.folded"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				resp, err := srv.Client().Get(srv.URL + path)
				if err != nil {
					t.Errorf("%s: %v", path, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("%s: code %d", path, resp.StatusCode)
					return
				}
			}
		}(path)
	}
	wg.Wait()
	<-done

	// After the writer finishes: 500 iterations x 2 ticks split across
	// work/waste, plus the overlay dimensions.
	s := p.Snapshot()
	if got := s.Totals[Work] + s.Totals[Waste]; got != 1000 {
		t.Errorf("work+waste = %d, want 1000", got)
	}
	if s.Totals[Block] != 500 || s.Totals[Sched] != 500 {
		t.Errorf("block=%d sched=%d, want 500/500", s.Totals[Block], s.Totals[Sched])
	}
}
