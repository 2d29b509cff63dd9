package causal

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/simtime"
)

// PathPiece is one thread's contribution to the critical path: the chain
// occupied thread Thread from From to To. Pieces tile [0, FinalClock]
// gaplessly in chronological order.
type PathPiece struct {
	Thread string
	From   simtime.Ticks
	To     simtime.Ticks
}

// SiteKey names a bytecode site for per-site attribution.
type SiteKey struct {
	Method string
	PC     int
}

func (k SiteKey) String() string {
	if k.Method == "" {
		return "(thread root)"
	}
	return fmt.Sprintf("%s@%d", k.Method, k.PC)
}

// Attribution is the classified critical path: which thread the makespan
// chain ran on at every instant, what each tick was spent on, and which
// monitors' contention actually bounded the program (critical contention)
// versus merely showing up in the histograms (raw contention).
type Attribution struct {
	Clock    simtime.Ticks
	Pieces   []PathPiece
	Segments []Segment // critical segments in chronological order

	ClassTotals [NumClasses]simtime.Ticks
	// CritBlock is blocked ticks ON THE CRITICAL PATH per monitor — the
	// contention that actually delayed program completion.
	CritBlock map[string]simtime.Ticks
	// CritWaste is rolled-back ticks on the critical path per revoked
	// monitor.
	CritWaste map[string]simtime.Ticks
	// RawBlock is blocked ticks across ALL threads per monitor (the
	// contention-histogram view). A monitor can dominate RawBlock while
	// never appearing in CritBlock.
	RawBlock map[string]simtime.Ticks

	// Sites is per-(method,pc) work+waste ticks on the critical path,
	// populated when a SiteRecorder was attached to the baseline run.
	Sites map[SiteKey]simtime.Ticks
}

// CriticalPath extracts the critical path by walking backward from the
// point that determines the final clock. Inside a thread the predecessor
// is always the in-thread chain (its edge weight is the full elapsed
// time, so no zero-weight cross edge can beat it); the walk only leaves a
// thread at its start point, following the spawn edge into the parent.
// The resulting pieces therefore tile [0, FinalClock] exactly — which
// CheckInvariant has already certified via dist==at for every point.
func (g *Graph) CriticalPath() (*Attribution, error) {
	if len(g.Threads) == 0 {
		return nil, fmt.Errorf("causal: empty graph")
	}
	// The program ends at the last thread-end; ties broken by stream
	// order (the later event is the one that ended the run).
	var endP *point
	for _, th := range g.Threads {
		p := th.last()
		if endP == nil || p.at > endP.at || (p.at == endP.at && p.seq > endP.seq) {
			endP = p
		}
	}

	var pieces []PathPiece
	cur := endP
	entry := endP.at
	for {
		start := cur.th.points[0]
		pieces = append(pieces, PathPiece{Thread: cur.th.Name, From: start.at, To: entry})
		for p := cur; p != nil; p = p.prev {
			p.onPath = true
		}
		var spawn *point
		for _, c := range start.cross {
			if c.label == "spawn" {
				spawn = c.from
				break
			}
		}
		if spawn == nil {
			if start.at != 0 && !g.Truncated {
				return nil, fmt.Errorf("causal: critical path walk stranded at thread %s start (t=%d) with no spawn edge", cur.th.Name, start.at)
			}
			break
		}
		spawn.onPath = true
		cur, entry = spawn, spawn.at
	}
	// Walked newest→oldest; flip to chronological order.
	for i, j := 0, len(pieces)-1; i < j; i, j = i+1, j-1 {
		pieces[i], pieces[j] = pieces[j], pieces[i]
	}

	a := &Attribution{
		Clock:     g.FinalClock,
		Pieces:    pieces,
		CritBlock: make(map[string]simtime.Ticks),
		CritWaste: make(map[string]simtime.Ticks),
		RawBlock:  g.RawContention(),
	}
	for _, pc := range pieces {
		th := g.byName[pc.Thread]
		for _, s := range th.Segments {
			lo, hi := maxT(s.Start, pc.From), minT(s.End, pc.To)
			if hi <= lo {
				continue
			}
			seg := s
			seg.Start, seg.End = lo, hi
			a.Segments = append(a.Segments, seg)
			a.ClassTotals[seg.Class] += seg.Dur()
			switch seg.Class {
			case Block:
				a.CritBlock[seg.Monitor] += seg.Dur()
			case Waste:
				a.CritWaste[seg.Monitor] += seg.Dur()
			}
		}
	}

	// The classified segments must re-tile the whole makespan: the same
	// exactness the DAG invariant certifies, carried through the sweep.
	var covered simtime.Ticks
	for _, s := range a.Segments {
		covered += s.Dur()
	}
	if !g.Truncated && covered != g.FinalClock {
		return nil, fmt.Errorf("causal: critical segments cover %d ticks, want the full makespan %d", covered, g.FinalClock)
	}
	return a, nil
}

// TopCritical returns up to k (monitor, critical blocked ticks) pairs in
// descending order, ties broken by name for determinism.
func (a *Attribution) TopCritical(k int) []MonitorTicks { return topTicks(a.CritBlock, k) }

// TopRaw returns up to k (monitor, raw blocked ticks) pairs.
func (a *Attribution) TopRaw(k int) []MonitorTicks { return topTicks(a.RawBlock, k) }

// MonitorTicks pairs a monitor with an attributed tick count.
type MonitorTicks struct {
	Monitor string
	Ticks   simtime.Ticks
}

func topTicks(m map[string]simtime.Ticks, k int) []MonitorTicks {
	out := make([]MonitorTicks, 0, len(m))
	for mon, t := range m {
		out = append(out, MonitorTicks{mon, t})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Ticks != out[j].Ticks {
			return out[i].Ticks > out[j].Ticks
		}
		return out[i].Monitor < out[j].Monitor
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// SiteRecorder accumulates the profiler's per-tick charge stream
// (prof.Profiler.SetSampler) so critical work can be attributed to
// bytecode sites after the fact. Each thread keeps a time-ordered stream of
// 16-byte runs — start, length and an interned site id — coalesced while
// contiguous at the same site and stored in fixed-size chunks, so growth
// never copies a recorded run.
type SiteRecorder struct {
	threads map[string]*siteStream
	sites   []SiteKey           // site id → site; id 0 is unused
	pcs     map[string]*[]int32 // per method: pc → site id (0 = not yet interned)
	other   map[SiteKey]int32   // sites with a negative pc

	// The sampler sees long stretches of one thread and one method, so the
	// last lookup of each spares the maps on nearly every charge.
	lastThread string
	lastStream *siteStream
	lastFn     string
	lastPCs    *[]int32
}

// siteRun is length ticks charged to site from start on.
type siteRun struct {
	start  simtime.Ticks
	length uint32
	site   int32
}

func (c *siteRun) end() simtime.Ticks { return c.start + simtime.Ticks(c.length) }

const (
	siteChunk  = 4096           // runs per chunk
	maxRunTick = math.MaxUint32 // longest run one record holds
)

// siteStream is one thread's runs in chunks of siteChunk; every chunk but
// the last is full.
type siteStream struct {
	chunks [][]siteRun
	n      int
}

func (s *siteStream) at(i int) *siteRun { return &s.chunks[i/siteChunk][i%siteChunk] }

func (s *siteStream) push(c siteRun) {
	if s.n%siteChunk == 0 {
		s.chunks = append(s.chunks, make([]siteRun, 0, siteChunk))
	}
	last := len(s.chunks) - 1
	s.chunks[last] = append(s.chunks[last], c)
	s.n++
}

// NewSiteRecorder returns an empty recorder; pass its Add to
// prof.Profiler.SetSampler.
func NewSiteRecorder() *SiteRecorder {
	return &SiteRecorder{
		threads: make(map[string]*siteStream),
		sites:   []SiteKey{{}},
		pcs:     make(map[string]*[]int32),
		other:   make(map[SiteKey]int32),
	}
}

// Add records one charge: d ticks ending at end, attributed to (fn, pc)
// on thread. Matches the prof sampler callback signature.
func (r *SiteRecorder) Add(thread string, end, d simtime.Ticks, fn string, pc int) {
	if d <= 0 {
		return
	}
	s := r.stream(thread)
	id := r.siteID(fn, pc)
	start := end - d
	if s.n > 0 {
		if c := s.at(s.n - 1); c.site == id && c.end() == start && d <= maxRunTick-simtime.Ticks(c.length) {
			c.length += uint32(d)
			return
		}
	}
	for d > 0 {
		n := minT(d, maxRunTick)
		s.push(siteRun{start: start, length: uint32(n), site: id})
		start, d = start+n, d-n
	}
}

// stream returns thread's run stream, creating it on first use.
func (r *SiteRecorder) stream(thread string) *siteStream {
	if r.lastStream != nil && thread == r.lastThread {
		return r.lastStream
	}
	s := r.threads[thread]
	if s == nil {
		s = &siteStream{}
		r.threads[thread] = s
	}
	r.lastThread, r.lastStream = thread, s
	return s
}

// siteID interns (fn, pc), once per site, through fn's pc table.
func (r *SiteRecorder) siteID(fn string, pc int) int32 {
	if pc < 0 {
		k := SiteKey{Method: fn, PC: pc}
		id, ok := r.other[k]
		if !ok {
			id = r.intern(k)
			r.other[k] = id
		}
		return id
	}
	t := r.lastPCs
	if t == nil || fn != r.lastFn {
		if t = r.pcs[fn]; t == nil {
			t = new([]int32)
			r.pcs[fn] = t
		}
		r.lastFn, r.lastPCs = fn, t
	}
	if pc >= len(*t) {
		*t = append(*t, make([]int32, pc+1-len(*t))...)
	}
	id := (*t)[pc]
	if id == 0 {
		id = r.intern(SiteKey{Method: fn, PC: pc})
		(*t)[pc] = id
	}
	return id
}

func (r *SiteRecorder) intern(k SiteKey) int32 {
	r.sites = append(r.sites, k)
	return int32(len(r.sites) - 1)
}

// AttachSites intersects the recorded charges with the attribution's
// critical work and waste segments, filling a.Sites with on-path ticks
// per bytecode site. Overlaps add into a slice indexed by interned site
// id; the map is built once at the end.
func (r *SiteRecorder) AttachSites(a *Attribution) {
	onPath := make([]simtime.Ticks, len(r.sites))
	// Index critical work/waste segments per thread, already in time
	// order from the path walk.
	perThread := make(map[string][]Segment)
	for _, s := range a.Segments {
		if s.Class == Work || s.Class == Waste {
			perThread[s.Thread] = append(perThread[s.Thread], s)
		}
	}
	for th, segs := range perThread {
		cs := r.threads[th]
		if cs == nil {
			continue
		}
		ci := 0
		for _, s := range segs {
			for ci < cs.n && cs.at(ci).end() <= s.Start {
				ci++
			}
			for j := ci; j < cs.n; j++ {
				c := cs.at(j)
				if c.start >= s.End {
					break
				}
				lo, hi := maxT(c.start, s.Start), minT(c.end(), s.End)
				if hi > lo {
					onPath[c.site] += hi - lo
				}
			}
		}
	}
	a.Sites = make(map[SiteKey]simtime.Ticks)
	for id, t := range onPath {
		if t > 0 {
			a.Sites[r.sites[id]] = t
		}
	}
}

// TopSites returns up to k (site, ticks) pairs in descending order.
func (a *Attribution) TopSites(k int) []SiteTicks {
	out := make([]SiteTicks, 0, len(a.Sites))
	for s, t := range a.Sites {
		out = append(out, SiteTicks{s, t})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Ticks != out[j].Ticks {
			return out[i].Ticks > out[j].Ticks
		}
		if out[i].Site.Method != out[j].Site.Method {
			return out[i].Site.Method < out[j].Site.Method
		}
		return out[i].Site.PC < out[j].Site.PC
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// SiteTicks pairs a bytecode site with attributed critical ticks.
type SiteTicks struct {
	Site  SiteKey
	Ticks simtime.Ticks
}
