package prof

import (
	"fmt"
	"io"
	"net/http"
)

// Live endpoint. Handler serves:
//
//	/metrics               Prometheus text format: per-dimension tick
//	                       totals, plus whatever the extra callback writes
//	                       (rvmrun feeds the obs.Metrics registry through
//	                       it).
//	/debug/pprof/          HTML index of the profile downloads.
//	/debug/pprof/<dim>     gzipped pprof protobuf for one dimension
//	                       (work, waste, block, sched).
//	/debug/pprof/<dim>.folded
//	                       the same dimension as folded stacks.
//
// Every request reads the profiler through Total or Snapshot, which hold
// its lock for the tables' headers and load the cells atomically, so
// scraping is safe while the VM runs and charges without the lock.

// Handler returns the live-profiling HTTP handler. extra, if non-nil, is
// invoked after the profiler's own /metrics output to append further
// Prometheus text-format metrics.
func Handler(p *Profiler, extra func(io.Writer)) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprintf(w, "# HELP rvm_profile_ticks_total Virtual ticks attributed per profile dimension.\n")
		fmt.Fprintf(w, "# TYPE rvm_profile_ticks_total counter\n")
		for _, d := range Dims() {
			fmt.Fprintf(w, "rvm_profile_ticks_total{dim=%q} %d\n", d.String(), p.Total(d))
		}
		if extra != nil {
			extra(w)
		}
	})
	mux.HandleFunc("/debug/pprof/", func(w http.ResponseWriter, r *http.Request) {
		name := r.URL.Path[len("/debug/pprof/"):]
		if name == "" {
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			fmt.Fprintf(w, "<html><body><h1>rvm virtual-time profiles</h1><ul>\n")
			for _, d := range Dims() {
				fmt.Fprintf(w, `<li><a href="/debug/pprof/%[1]s">%[1]s</a> (<a href="/debug/pprof/%[1]s.folded">folded</a>)</li>`+"\n", d.String())
			}
			fmt.Fprintf(w, "</ul><p><a href=\"/metrics\">/metrics</a></p></body></html>\n")
			return
		}
		folded := false
		if n := len(name) - len(".folded"); n > 0 && name[n:] == ".folded" {
			folded, name = true, name[:n]
		}
		dim, ok := dimByName(name)
		if !ok {
			http.NotFound(w, r)
			return
		}
		snap := p.Snapshot()
		if folded {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			snap.WriteFolded(w, dim)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition", fmt.Sprintf(`attachment; filename=%q`, name+".pb.gz"))
		snap.WritePprof(w, dim)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		http.Redirect(w, r, "/debug/pprof/", http.StatusFound)
	})
	return mux
}

func dimByName(name string) (Dim, bool) {
	for _, d := range Dims() {
		if d.String() == name {
			return d, true
		}
	}
	return 0, false
}
