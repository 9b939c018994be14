package pfs

import (
	"slices"
	"sync"
)

// storePageSize is the allocation granule of ByteStore.
const storePageSize = 64 * 1024

// spanSize is the bookkeeping a sparse page pays per run: the three
// int32 fields of span.
const spanSize = 12

// ByteStore is a sparse, growable in-memory byte container with
// positional reads and writes. It holds the *contents* of simulated files
// so that the I/O layers above can be verified end-to-end; it has no
// timing behaviour of its own.
//
// Each 64 KiB page is in one of two states. A dense page is the whole
// page as one slice. A sparse page holds exactly the bytes written to
// it, as sorted, disjoint, non-adjacent runs packed back to back in one
// buffer. A page stays sparse while its bytes plus spanSize per run fit
// in half a page; the write that would take it past that converts it to
// dense before copying. Small writes scattered over a page (hyperslab
// rows, list I/O) then cost about the bytes they hold, while streaming
// writes still land in dense pages.
type ByteStore struct {
	mu    sync.Mutex
	pages map[int64]*page // page index -> page (allocated lazily)
	size  int64
}

// page is one storePageSize granule of a ByteStore. The zero page is
// sparse and empty: it reads as zeros.
type page struct {
	dense []byte // the whole page, or nil while the page is sparse
	runs  []span // sparse: sorted by off, disjoint and non-adjacent
	buf   []byte // sparse: the runs' bytes, back to back in run order
}

// span is one run of a sparse page: n bytes at page offset off, held at
// buf[at:at+n].
type span struct {
	off, n, at int32
}

func (r span) end() int { return int(r.off + r.n) }

// NewByteStore returns an empty store.
func NewByteStore() *ByteStore {
	return &ByteStore{pages: make(map[int64]*page)}
}

// WriteAt stores data at offset off, extending the logical size if needed.
func (s *ByteStore) WriteAt(data []byte, off int64) {
	if off < 0 {
		panic("pfs: negative offset")
	}
	if len(data) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	end := off + int64(len(data))
	if end > s.size {
		s.size = end
	}
	pos := off
	rem := data
	for len(rem) > 0 {
		pageIdx := pos / storePageSize
		pageOff := int(pos % storePageSize)
		n := min(len(rem), storePageSize-pageOff)
		p, ok := s.pages[pageIdx]
		switch {
		case !ok && n == storePageSize:
			// The write covers the whole missing page: clone via append,
			// which skips zeroing memory that is immediately overwritten
			// (large streaming writes hit this path for nearly every page).
			s.pages[pageIdx] = &page{dense: append([]byte(nil), rem[:n]...)}
		case !ok:
			p = new(page)
			s.pages[pageIdx] = p
			fallthrough
		default:
			p.write(rem[:n], pageOff)
		}
		rem = rem[n:]
		pos += int64(n)
	}
}

// write copies d to page offset lo. On a sparse page it merges d with
// every run it overlaps or touches into one run, growing buf by the
// bytes d adds; a run whose tail d extends grows in place.
func (p *page) write(d []byte, lo int) {
	if p.dense != nil {
		copy(p.dense[lo:], d)
		return
	}
	hi := lo + len(d)
	runs := p.runs
	// Runs [i, j) overlap or touch [lo, hi).
	i := p.after(lo - 1)
	j := i
	for j < len(runs) && int(runs[j].off) <= hi {
		j++
	}
	nlo, nhi, old := lo, hi, 0
	at := len(p.buf)
	if i < len(runs) {
		at = int(runs[i].at)
	}
	if i < j {
		nlo = min(lo, int(runs[i].off))
		nhi = max(hi, runs[j-1].end())
		old = int(runs[j-1].at+runs[j-1].n) - at
	}
	grow := nhi - nlo - old
	if len(p.buf)+grow+(len(runs)-(j-i)+1)*spanSize > storePageSize/2 {
		p.densify()
		copy(p.dense[lo:], d)
		return
	}
	tail := len(p.buf)
	if need := tail + grow; need > cap(p.buf) {
		// Grow by half, never past the densify threshold: append's own
		// policy steps 1.25× at these sizes and reallocates far more often.
		nb := make([]byte, tail, min(max(need, cap(p.buf)*3/2), storePageSize/2))
		copy(nb, p.buf)
		p.buf = nb
	}
	p.buf = p.buf[:tail+grow]
	copy(p.buf[at+old+grow:], p.buf[at+old:tail])
	// The merged runs only move right within the new run, so moving the
	// last first never overwrites one not yet moved.
	for k := j - 1; k >= i; k-- {
		r := runs[k]
		copy(p.buf[at+int(r.off)-nlo:], p.buf[r.at:r.at+r.n])
	}
	copy(p.buf[at+lo-nlo:], d)
	runs = slices.Replace(runs, i, j, span{off: int32(nlo), n: int32(nhi - nlo), at: int32(at)})
	for k := i + 1; k < len(runs); k++ {
		runs[k].at += int32(grow)
	}
	p.runs = runs
}

// after returns the index of the first run that ends after page offset
// x, or len(p.runs) if none does. It is sort.Search written out: the
// closure call made strided 53-byte reads about 1.5× slower.
func (p *page) after(x int) int {
	i, j := 0, len(p.runs)
	for i < j {
		h := int(uint(i+j) >> 1)
		if p.runs[h].end() <= x {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// densify converts a sparse page to a dense one.
func (p *page) densify() {
	d := make([]byte, storePageSize)
	for _, r := range p.runs {
		copy(d[r.off:], p.buf[r.at:r.at+r.n])
	}
	*p = page{dense: d}
}

// read fills dst from page offset lo; bytes no run holds read as zero.
func (p *page) read(dst []byte, lo int) {
	if p.dense != nil {
		copy(dst, p.dense[lo:])
		return
	}
	hi := lo + len(dst)
	runs := p.runs
	i := p.after(lo)
	pos := lo
	for ; i < len(runs) && int(runs[i].off) < hi; i++ {
		r := runs[i]
		if int(r.off) > pos {
			clear(dst[pos-lo : int(r.off)-lo])
			pos = int(r.off)
		}
		e := min(hi, r.end())
		copy(dst[pos-lo:e-lo], p.buf[int(r.at)+pos-int(r.off):])
		pos = e
	}
	clear(dst[pos-lo:])
}

// ReadAt fills buf from offset off. Unwritten regions (holes, or space past
// the logical size) read as zero bytes, matching sparse-file semantics.
func (s *ByteStore) ReadAt(buf []byte, off int64) {
	if off < 0 {
		panic("pfs: negative offset")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	pos := off
	rem := buf
	for len(rem) > 0 {
		pageIdx := pos / storePageSize
		pageOff := int(pos % storePageSize)
		n := min(len(rem), storePageSize-pageOff)
		if p, ok := s.pages[pageIdx]; ok {
			p.read(rem[:n], pageOff)
		} else {
			clear(rem[:n])
		}
		rem = rem[n:]
		pos += int64(n)
	}
}

// Size returns the logical file size (highest written offset + 1).
func (s *ByteStore) Size() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// Bytes returns a copy of the store's full contents [0, Size).
func (s *ByteStore) Bytes() []byte {
	out := make([]byte, s.Size())
	s.ReadAt(out, 0)
	return out
}

// Truncate resets the store to empty.
func (s *ByteStore) Truncate() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pages = make(map[int64]*page)
	s.size = 0
}

// resident returns the host bytes the store's pages hold: a full page
// per dense page, and the buffer and run-list capacity of each sparse
// page.
func (s *ByteStore) resident() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, p := range s.pages {
		if p.dense != nil {
			n += storePageSize
		} else {
			n += int64(cap(p.buf)) + int64(cap(p.runs))*spanSize
		}
	}
	return n
}
