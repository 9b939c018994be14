// Package obs is the stack-wide observability layer: hierarchical spans,
// Darshan-style per-rank per-file counters and Chrome-trace export, all in
// virtual time.
//
// The design constraint is zero perturbation: instrumentation only ever
// reads the virtual clock (Proc.Now), never advances it, so a simulation
// with a Tracer attached produces bit-identical virtual timings to the same
// simulation without one. A Tracer rides on each sim.Proc through the
// opaque Proc trace slot; every layer of the stack (enzo, hdf5/hdf4,
// mpiio, mpi, pfs) opens spans through obs.Begin, which is a no-op when no
// tracer is attached.
//
// This is the reproduction's equivalent of the Pablo instrumentation the
// paper's analysis was built on, extended with the per-file counter records
// popularized by Darshan and a Perfetto-loadable timeline export.
package obs

import (
	"sync"

	"repro/internal/sim"
)

// Layer identifies which level of the I/O stack a span belongs to.
type Layer int

// Stack layers, from application down to the storage hardware.
const (
	LayerApp   Layer = iota // enzo application phases, per-grid I/O
	LayerHDF                // HDF5 / HDF4 library
	LayerMPIIO              // MPI-IO (ROMIO model): collective buffering, sieving
	LayerMPI                // message passing: collectives, point-to-point
	LayerPFS                // parallel file system calls
	LayerCodec              // grid-data compression/decompression CPU
	numLayers
)

func (l Layer) String() string {
	switch l {
	case LayerApp:
		return "app"
	case LayerHDF:
		return "hdf"
	case LayerMPIIO:
		return "mpiio"
	case LayerMPI:
		return "mpi"
	case LayerPFS:
		return "pfs"
	case LayerCodec:
		return "codec"
	}
	return "unknown"
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value string
}

// Span is one completed (or still-open) region of virtual time on a rank.
// Spans form a tree per rank: Parent indexes the same rank's span slice
// (-1 for a root span).
type Span struct {
	Rank   int
	Layer  Layer
	Name   string
	Start  float64 // virtual seconds
	End    float64
	Bytes  int64
	Parent int
	Depth  int
	Attrs  []Attr
}

// Dur returns the span's virtual duration.
func (s Span) Dur() float64 { return s.End - s.Start }

// ServeEvent is one request observed on a sim.Server: it arrived at Arrive,
// started service at Start (after queueing behind earlier requests) and
// completed at End.
type ServeEvent struct {
	Arrive float64
	Start  float64
	End    float64
}

// Tracer collects spans, counters and server events for one simulation
// run. Attach it to each rank's Proc before the rank body runs; the stack
// below finds it through obs.Begin. The engine serializes all simulated
// work, so per-rank state needs no locking; the mutex protects the shared
// tables for the race detector's benefit and for post-run readers.
type Tracer struct {
	mu sync.Mutex

	ranks []*procTrace // indexed by rank; nil for unattached ranks

	serverNames []string // first-observation order (deterministic: engine is serialized)
	serverIdx   map[string]int
	serves      [][]ServeEvent // per server, observation order

	counters map[counterKey]*FileCounters
	ckeys    []counterKey // first-touch order

	codecs map[int]*CodecCounters // per-rank compression counters
	dedup  map[int]*DedupCounters // per-rank content-addressed store counters

	durs map[string][]float64 // op -> per-call virtual durations, for percentiles

	fsInfo FSInfo        // run-level file-system geometry, see SetFSInfo
	hints  []HintsRecord // per-file MPI-IO hints, first-open order
}

type counterKey struct {
	rank int
	file string
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{
		serverIdx: make(map[string]int),
		counters:  make(map[counterKey]*FileCounters),
		durs:      make(map[string][]float64),
	}
}

// procTrace is the per-rank trace state. Only the owning process touches
// it while the simulation runs (the engine resumes one process at a time),
// so it is lock-free.
type procTrace struct {
	t     *Tracer
	rank  int
	spans []Span
	stack []int     // open span indices, innermost last
	free  []*Active // recycled span handles; see Begin/End
}

// Attach registers rank's Proc with the tracer. Every span opened by p
// after this call is recorded under the given rank.
func (t *Tracer) Attach(p *sim.Proc, rank int) {
	h := &procTrace{t: t, rank: rank}
	t.mu.Lock()
	for len(t.ranks) <= rank {
		t.ranks = append(t.ranks, nil)
	}
	t.ranks[rank] = h
	t.mu.Unlock()
	p.SetTrace(h)
}

// Active is an open span handle. The zero of *Active (nil) is a valid
// no-op handle: every method short-circuits, so instrumentation sites pay
// only a nil check when no tracer is attached.
type Active struct {
	h   *procTrace
	p   *sim.Proc
	idx int
}

// Begin opens a span at p's current virtual time. It returns nil (a no-op
// handle) when p has no tracer attached. Spans must be closed in LIFO
// order; End panics otherwise.
func Begin(p *sim.Proc, layer Layer, name string) *Active {
	h, _ := p.Trace().(*procTrace)
	if h == nil {
		return nil
	}
	parent := -1
	if n := len(h.stack); n > 0 {
		parent = h.stack[n-1]
	}
	idx := len(h.spans)
	h.spans = append(h.spans, Span{
		Rank:   h.rank,
		Layer:  layer,
		Name:   name,
		Start:  p.Now(),
		End:    p.Now(),
		Parent: parent,
		Depth:  len(h.stack),
	})
	h.stack = append(h.stack, idx)
	// Handles are recycled through a per-rank free list: traced hot paths
	// open millions of spans, and each handle would otherwise escape to the
	// heap. A handle is dead once End returns it here; the strict-nesting
	// panic in End catches most use-after-End mistakes.
	if n := len(h.free); n > 0 {
		a := h.free[n-1]
		h.free = h.free[:n-1]
		*a = Active{h: h, p: p, idx: idx}
		return a
	}
	return &Active{h: h, p: p, idx: idx}
}

// Bytes adds n to the span's byte count (no-op on a nil handle).
func (a *Active) Bytes(n int64) *Active {
	if a == nil {
		return nil
	}
	a.h.spans[a.idx].Bytes += n
	return a
}

// Attr annotates the span with a key/value pair (no-op on a nil handle).
func (a *Active) Attr(key, value string) *Active {
	if a == nil {
		return nil
	}
	sp := &a.h.spans[a.idx]
	sp.Attrs = append(sp.Attrs, Attr{Key: key, Value: value})
	return a
}

// End closes the span at the process's current virtual time. It panics if
// this span is not the innermost open span on its rank — spans nest
// strictly, mirroring call structure.
func (a *Active) End() {
	if a == nil {
		return
	}
	h := a.h
	n := len(h.stack)
	if n == 0 || h.stack[n-1] != a.idx {
		panic("obs: span End out of order (spans must nest)")
	}
	h.stack = h.stack[:n-1]
	h.spans[a.idx].End = a.p.Now()
	h.free = append(h.free, a)
}

// Mark returns p's current span-stack depth (0 when untraced), for use
// with Unwind around code that may panic past its End calls.
func Mark(p *sim.Proc) int {
	h, _ := p.Trace().(*procTrace)
	if h == nil {
		return 0
	}
	return len(h.stack)
}

// Unwind closes every span opened after mark at p's current virtual time,
// annotating each as aborted. Recover-based fault absorption (a tolerant
// read-back swallowing an I/O error panic) skips the Ends of every span
// between the throw and the recover; without unwinding, the next regular
// End would violate the nesting invariant.
func Unwind(p *sim.Proc, mark int) {
	h, _ := p.Trace().(*procTrace)
	if h == nil {
		return
	}
	for len(h.stack) > mark {
		n := len(h.stack)
		idx := h.stack[n-1]
		h.stack = h.stack[:n-1]
		h.spans[idx].End = p.Now()
		h.spans[idx].Attrs = append(h.spans[idx].Attrs, Attr{Key: "aborted", Value: "1"})
	}
}

// Spans returns every recorded span, ordered by rank and then by span begin
// order within the rank. The order — and every field — is deterministic
// across runs.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Span
	for _, h := range t.ranks {
		if h != nil {
			out = append(out, h.spans...)
		}
	}
	return out
}

// NumRanks returns the number of rank slots attached (highest rank + 1).
func (t *Tracer) NumRanks() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ranks)
}

// ObserveServe implements sim.ServeObserver: it records one queueing event
// per server request, keyed by the server's diagnostic name.
func (t *Tracer) ObserveServe(s *sim.Server, arrive, start, end float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.serverIdx[s.Name()]
	if !ok {
		i = len(t.serverNames)
		t.serverIdx[s.Name()] = i
		t.serverNames = append(t.serverNames, s.Name())
		t.serves = append(t.serves, nil)
	}
	t.serves[i] = append(t.serves[i], ServeEvent{Arrive: arrive, Start: start, End: end})
}

// Servers returns the observed server names (first-observation order) and
// their per-server request streams.
func (t *Tracer) Servers() ([]string, [][]ServeEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, len(t.serverNames))
	copy(names, t.serverNames)
	events := make([][]ServeEvent, len(t.serves))
	for i, evs := range t.serves {
		events[i] = append([]ServeEvent(nil), evs...)
	}
	return names, events
}

// recordDur appends one per-call duration for percentile computation.
func (t *Tracer) recordDur(op string, d float64) {
	t.mu.Lock()
	t.durs[op] = append(t.durs[op], d)
	t.mu.Unlock()
}
