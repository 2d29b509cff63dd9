package interp

import (
	"fmt"
	"io"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/prof"
	"repro/internal/trace"
)

// TestLiveScrapeDuringRun scrapes the live profiling endpoint while a
// contended program runs on each tier. One client per path fetches
// /metrics, a pprof download and a folded profile in a loop until the run
// returns. The VM waits at every context switch until each client has
// completed a request begun after the switch, so the endpoint is read
// mid-run, between dispatches handed off from one thread's coroutine to
// the next. Scraping must change nothing: the final snapshot equals that
// of the same run with no scraper. Run it under -race.
func TestLiveScrapeDuringRun(t *testing.T) {
	src := filepath.Join("..", "..", "examples", "bank", "bank.rvm")
	paths := []string{"/metrics", "/debug/pprof/work", "/debug/pprof/waste.folded"}
	for _, tier := range allTiers {
		quiet, _ := profRun(t, src, tier)

		live := prof.New()
		srv := httptest.NewServer(prof.Handler(live, nil))
		gate := newScrapeGate(len(paths))
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for i, path := range paths {
			wg.Add(1)
			go func(i int, path string) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if err := scrape(srv, path); err != nil {
						t.Errorf("%v tier: %v", tier, err)
						gate.fail()
						return
					}
					gate.completed(i)
				}
			}(i, path)
		}
		profRunInto(t, src, tier, live, gate)
		close(stop)
		wg.Wait()
		srv.Close()

		if gate.waits == 0 {
			t.Errorf("%v tier: no context switch held the run for a scrape", tier)
		}
		if got, want := live.Snapshot(), quiet.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Errorf("%v tier: scraped run's profile differs from the quiet run's:\n got  %+v\n want %+v", tier, got.Totals, want.Totals)
		}
	}
}

// scrape fetches one path and drains its body.
func scrape(srv *httptest.Server, path string) error {
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	if resp.StatusCode != 200 {
		return fmt.Errorf("%s: code %d", path, resp.StatusCode)
	}
	return nil
}

// scrapeGate is a trace sink that holds the VM at each context switch
// until every scraper has completed a request begun after the switch: the
// second completion after the hold, since the first may have been in
// flight already. A failed scraper releases every hold.
type scrapeGate struct {
	mu     sync.Mutex
	cond   *sync.Cond
	done   []int // completed requests per scraper
	failed bool
	waits  int // context switches held; read after the run
}

func newScrapeGate(scrapers int) *scrapeGate {
	g := &scrapeGate{done: make([]int, scrapers)}
	g.cond = sync.NewCond(&g.mu)
	return g
}

func (g *scrapeGate) completed(i int) {
	g.mu.Lock()
	g.done[i]++
	g.mu.Unlock()
	g.cond.Broadcast()
}

func (g *scrapeGate) fail() {
	g.mu.Lock()
	g.failed = true
	g.mu.Unlock()
	g.cond.Broadcast()
}

func (g *scrapeGate) Emit(ev trace.Event) {
	if ev.Kind != trace.ContextSwitch {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.waits++
	want := make([]int, len(g.done))
	for i, n := range g.done {
		want[i] = n + 2
	}
	for i := range want {
		for g.done[i] < want[i] && !g.failed {
			g.cond.Wait()
		}
	}
}
