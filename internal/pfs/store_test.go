package pfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func TestByteStoreRoundTrip(t *testing.T) {
	st := NewByteStore()
	data := []byte("the quick brown fox")
	st.WriteAt(data, 100)
	if st.Size() != 100+int64(len(data)) {
		t.Fatalf("size = %d", st.Size())
	}
	buf := make([]byte, len(data))
	st.ReadAt(buf, 100)
	if !bytes.Equal(buf, data) {
		t.Fatalf("read back %q", buf)
	}
}

func TestByteStoreHolesReadZero(t *testing.T) {
	st := NewByteStore()
	st.WriteAt([]byte{0xFF}, 200000) // spans multiple pages
	buf := make([]byte, 10)
	st.ReadAt(buf, 0)
	for _, b := range buf {
		if b != 0 {
			t.Fatal("hole did not read as zero")
		}
	}
	one := make([]byte, 1)
	st.ReadAt(one, 200000)
	if one[0] != 0xFF {
		t.Fatal("written byte lost")
	}
}

func TestByteStoreCrossPageWrite(t *testing.T) {
	st := NewByteStore()
	data := make([]byte, 3*storePageSize+17)
	rng := rand.New(rand.NewSource(7))
	rng.Read(data)
	off := int64(storePageSize - 13)
	st.WriteAt(data, off)
	buf := make([]byte, len(data))
	st.ReadAt(buf, off)
	if !bytes.Equal(buf, data) {
		t.Fatal("cross-page round trip failed")
	}
}

func TestByteStoreTruncate(t *testing.T) {
	st := NewByteStore()
	st.WriteAt([]byte("abc"), 0)
	st.Truncate()
	if st.Size() != 0 {
		t.Fatal("truncate did not reset size")
	}
	buf := make([]byte, 3)
	st.ReadAt(buf, 0)
	if !bytes.Equal(buf, []byte{0, 0, 0}) {
		t.Fatal("truncate did not clear data")
	}
}

// storeSpan is the address range the generated write sequences cover:
// four pages, so sequences revisit pages often.
const storeSpan = 4 * storePageSize

// storeOp is one WriteAt of a generated sequence.
type storeOp struct {
	off  int64
	data []byte
}

// storeCase is a random WriteAt sequence, and the generator that built it
// (used again to pick read windows).
type storeCase struct {
	r   *rand.Rand
	ops []storeOp
}

// Generate builds a sequence from the write shapes that move a page
// between states: sub-run, overlapping, run-bridging, page-straddling,
// exact-page and multi-page writes, and bursts of strided small writes
// long enough to push a sparse page past half full.
func (storeCase) Generate(r *rand.Rand, size int) reflect.Value {
	c := storeCase{r: r}
	add := func(off int64, n int) {
		if n <= 0 {
			return
		}
		data := make([]byte, n)
		r.Read(data)
		c.ops = append(c.ops, storeOp{off, data})
	}
	// prev picks an earlier write to aim at, or a random spot.
	prev := func() (int64, int) {
		if len(c.ops) == 0 {
			return r.Int63n(storeSpan), 1 + r.Intn(64)
		}
		op := c.ops[r.Intn(len(c.ops))]
		return op.off, len(op.data)
	}
	for k := 2 + r.Intn(size+1); k > 0; k-- {
		switch r.Intn(8) {
		case 0: // sub-run: inside an earlier write
			off, n := prev()
			at := r.Intn(n)
			add(off+int64(at), 1+r.Intn(n-at))
		case 1: // overlapping: from inside an earlier write past its end
			off, n := prev()
			add(off+int64(r.Intn(n)), n+1+r.Intn(256))
		case 2: // run-bridging: from before one earlier write to past another
			a, _ := prev()
			b, n := prev()
			lo, hi := min(a, b), max(a, b)+int64(n)
			lo -= min(lo, int64(r.Intn(32)))
			add(lo, int(hi-lo)+r.Intn(32))
		case 3: // page-straddling
			edge := int64(1+r.Intn(storeSpan/storePageSize-1)) * storePageSize
			add(edge-int64(1+r.Intn(512)), 2+r.Intn(1024))
		case 4: // exact page
			add(int64(r.Intn(storeSpan/storePageSize))*storePageSize, storePageSize)
		case 5: // multi-page, unaligned
			add(r.Int63n(storeSpan), storePageSize+r.Intn(2*storePageSize))
		case 6: // strided burst: enough ~53-byte rows to fill a page past half
			off := r.Int63n(storeSpan)
			row := 40 + r.Intn(30)
			stride := row + 1 + r.Intn(row)
			for i := r.Intn(900); i >= 0; i-- {
				add(off+int64(i*stride), row)
			}
		default: // small write anywhere
			add(r.Int63n(storeSpan), 1+r.Intn(200))
		}
	}
	return reflect.ValueOf(c)
}

// apply replays ops into st and into the flat oracle, returning the
// grown oracle.
func apply(st *ByteStore, ref []byte, ops []storeOp) []byte {
	for _, op := range ops {
		if end := op.off + int64(len(op.data)); end > int64(len(ref)) {
			ref = append(ref, make([]byte, end-int64(len(ref)))...)
		}
		copy(ref[op.off:], op.data)
		st.WriteAt(op.data, op.off)
	}
	return ref
}

// checkPages verifies the sparse-page invariants: runs sorted, disjoint
// and non-adjacent inside the page, packed back to back in buf, and a
// sparse page no fuller than the densify threshold.
func checkPages(st *ByteStore) error {
	for idx, p := range st.pages {
		if p.dense != nil {
			if len(p.dense) != storePageSize || p.runs != nil || p.buf != nil {
				return fmt.Errorf("page %d: malformed dense page", idx)
			}
			continue
		}
		at, prevEnd := 0, -1
		for k, r := range p.runs {
			if r.n <= 0 || int(r.off) <= prevEnd || r.end() > storePageSize || int(r.at) != at {
				return fmt.Errorf("page %d run %d %+v: bad run (prev end %d, at %d)", idx, k, r, prevEnd, at)
			}
			prevEnd, at = r.end(), at+int(r.n)
		}
		if at != len(p.buf) {
			return fmt.Errorf("page %d: runs hold %d bytes, buf %d", idx, at, len(p.buf))
		}
		if len(p.buf)+len(p.runs)*spanSize > storePageSize/2 {
			return fmt.Errorf("page %d: sparse page past the densify threshold", idx)
		}
	}
	return nil
}

// checkAgainst compares every read surface of st with the oracle: Size,
// Bytes, and ReadAt of random windows that include holes and space past
// Size.
func checkAgainst(st *ByteStore, ref []byte, r *rand.Rand) error {
	if err := checkPages(st); err != nil {
		return err
	}
	if st.Size() != int64(len(ref)) {
		return fmt.Errorf("Size = %d, want %d", st.Size(), len(ref))
	}
	if !bytes.Equal(st.Bytes(), ref) {
		return fmt.Errorf("Bytes differ from the oracle")
	}
	for w := 0; w < 20; w++ {
		off := r.Int63n(int64(len(ref)) + storePageSize)
		buf := make([]byte, r.Intn(2*storePageSize))
		for i := range buf {
			buf[i] = 0xA5 // ReadAt must overwrite holes, not skip them
		}
		st.ReadAt(buf, off)
		want := make([]byte, len(buf))
		if off < int64(len(ref)) {
			copy(want, ref[off:])
		}
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("ReadAt(%d bytes at %d) differs from the oracle", len(buf), off)
		}
	}
	return nil
}

// Property: any WriteAt sequence reads back like a flat reference slice,
// through Size, Bytes and ReadAt, and again after Truncate and reuse.
func TestByteStoreMatchesReferenceProperty(t *testing.T) {
	roundTrip := func(c storeCase) bool {
		st := NewByteStore()
		ref := apply(st, nil, c.ops)
		if err := checkAgainst(st, ref, c.r); err != nil {
			t.Error(err)
			return false
		}
		st.Truncate()
		if st.Size() != 0 || len(st.Bytes()) != 0 || len(st.pages) != 0 {
			t.Error("Truncate left data behind")
			return false
		}
		// Reuse: the second half of the sequence on the truncated store.
		ref = apply(st, nil, c.ops[len(c.ops)/2:])
		if err := checkAgainst(st, ref, c.r); err != nil {
			t.Errorf("after Truncate: %v", err)
			return false
		}
		return true
	}
	if err := quick.Check(roundTrip, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// disjointCase is a set of disjoint writes over storeSpan: random-length
// segments, some left as holes, so no order of applying them can matter.
type disjointCase struct {
	r   *rand.Rand
	ops []storeOp
}

func (disjointCase) Generate(r *rand.Rand, size int) reflect.Value {
	c := disjointCase{r: r}
	for off := int64(r.Intn(100)); off < storeSpan; {
		n := 1 + r.Intn(1+r.Intn(3*storePageSize/2))
		if r.Intn(4) > 0 {
			data := make([]byte, n)
			r.Read(data)
			c.ops = append(c.ops, storeOp{off, data})
		}
		off += int64(n)
	}
	return reflect.ValueOf(c)
}

// Property: one set of disjoint writes applied in several random orders
// gives identical contents each time — the shuffled-segment round trip.
func TestByteStoreWriteOrderIrrelevantProperty(t *testing.T) {
	sameInAnyOrder := func(c disjointCase) bool {
		want := apply(NewByteStore(), nil, c.ops)
		for perm := 0; perm < 4; perm++ {
			ops := append([]storeOp(nil), c.ops...)
			c.r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
			st := NewByteStore()
			apply(st, nil, ops)
			if err := checkPages(st); err != nil {
				t.Error(err)
				return false
			}
			if !bytes.Equal(st.Bytes(), want) {
				t.Errorf("permutation %d of %d writes: contents differ", perm, len(ops))
				return false
			}
		}
		return true
	}
	if err := quick.Check(sameInAnyOrder, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// A page starts sparse, stays sparse while its bytes plus run overhead
// fit in half a page, and turns dense on the write that would pass that.
func TestByteStorePageStates(t *testing.T) {
	st := NewByteStore()
	row := bytes.Repeat([]byte{7}, 52)
	st.WriteAt(row, 0)
	// Extending a run's tail grows that run, without a new one.
	st.WriteAt([]byte{8}, int64(len(row)))
	p := st.pages[0]
	if p.dense != nil || len(p.runs) != 1 || p.runs[0].n != 53 {
		t.Fatalf("tail extension: dense=%v runs=%+v, want one 53-byte run", p.dense != nil, p.runs)
	}
	held, rows := len(row)+1, 1
	for ; held+len(row)+(rows+1)*spanSize <= storePageSize/2; rows++ {
		st.WriteAt(row, int64(rows*2*len(row)))
		held += len(row)
	}
	if p.dense != nil || len(p.runs) != rows {
		t.Fatalf("after %d strided rows: dense=%v runs=%d, want sparse with %d runs", rows, p.dense != nil, len(p.runs), rows)
	}
	st.WriteAt(row, int64(rows*2*len(row)))
	if p = st.pages[0]; p.dense == nil {
		t.Fatalf("row %d took the page past half full but it stayed sparse", rows+1)
	}
	// A full-page write to a missing page is dense at once.
	st.WriteAt(make([]byte, storePageSize), storePageSize)
	if st.pages[1].dense == nil {
		t.Fatal("full-page write made a sparse page")
	}
}

// Writers that share sparse pages — each goroutine its own interleaved
// rows, with reads in between — leave the same bytes as a serial replay.
func TestByteStoreConcurrentWriters(t *testing.T) {
	const writers, rows, row = 4, 2000, 53
	st := NewByteStore()
	want := make([]byte, writers*rows*row)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		data := bytes.Repeat([]byte{byte(w + 1)}, row)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, row)
			for i := 0; i < rows; i++ {
				off := int64((i*writers + w) * row)
				st.WriteAt(data, off)
				st.ReadAt(buf, off)
				if !bytes.Equal(buf, data) {
					t.Errorf("writer %d row %d read back wrong bytes", w, i)
					return
				}
			}
		}(w)
		for i := 0; i < rows; i++ {
			copy(want[(i*writers+w)*row:], data)
		}
	}
	wg.Wait()
	if !bytes.Equal(st.Bytes(), want) {
		t.Fatal("concurrent writers left different bytes than a serial replay")
	}
	if err := checkPages(st); err != nil {
		t.Fatal(err)
	}
}

// The node-local initial-conditions pattern: eight stores (one per node)
// each receive one rank's (Block,Block,Block) hyperslab rows — 52-byte
// runs strided through every field of a stack of small grids — and the
// union over the eight stores is the whole dense file. Each store must
// stay within twice the bytes it holds, where zero-filled 64 KiB pages
// would cost about eight times.
func TestByteStoreResidentTracksBytesHeld(t *testing.T) {
	const (
		n     = 26 // grid edge in elements; half a row is 13 float32 = 52 B
		half  = n / 2
		elem  = 4
		grids = 100 // 100 × 26³ × 4 B ≈ 6.7 MiB of file
	)
	stores := make([]*ByteStore, 8)
	held := make([]int64, 8)
	for i := range stores {
		stores[i] = NewByteStore()
	}
	row := bytes.Repeat([]byte{1}, half*elem)
	for g := 0; g < grids; g++ {
		base := int64(g * n * n * n * elem)
		for rank, st := range stores {
			pz, py, px := rank>>2, rank>>1&1, rank&1
			for z := pz * half; z < (pz+1)*half; z++ {
				for y := py * half; y < (py+1)*half; y++ {
					st.WriteAt(row, base+int64(((z*n+y)*n+px*half)*elem))
					held[rank] += int64(len(row))
				}
			}
		}
	}
	var union int64
	for rank, st := range stores {
		union += held[rank]
		res := st.resident()
		t.Logf("node %d: %d resident bytes for %d held (%.2f×)", rank, res, held[rank], float64(res)/float64(held[rank]))
		if res > 2*held[rank] {
			t.Errorf("node %d: %d resident bytes for %d held (%.2f×), want ≤ 2×",
				rank, res, held[rank], float64(res)/float64(held[rank]))
		}
	}
	if want := int64(grids * n * n * n * elem); union != want {
		t.Fatalf("partitions hold %d bytes, want the whole %d-byte file", union, want)
	}
}

// BenchmarkByteStore measures WriteAt and ReadAt throughput on the two
// traffic shapes the simulator produces: 1 MiB streaming requests (dense
// pages; the shared-file dumps and restarts) and strided 53-byte rows at
// one-eighth fill (sparse pages; node-local initial conditions).
func BenchmarkByteStore(b *testing.B) {
	const (
		chunk  = 1 << 20
		row    = 53
		stride = 8 * row
		window = 64 << 20 // bytes of file each case cycles over
	)
	src := make([]byte, chunk)
	rand.New(rand.NewSource(1)).Read(src)
	dense := func(b *testing.B, st *ByteStore, read bool) {
		b.SetBytes(chunk)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			off := int64(i) * chunk % window
			if read {
				st.ReadAt(src, off)
			} else {
				if off == 0 {
					st.Truncate()
				}
				st.WriteAt(src, off)
			}
		}
	}
	strided := func(b *testing.B, st *ByteStore, read bool) {
		b.SetBytes(row)
		buf := src[:row]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			off := int64(i) % (window / stride) * stride
			if read {
				st.ReadAt(buf, off)
			} else {
				if off == 0 {
					st.Truncate()
				}
				st.WriteAt(buf, off)
			}
		}
	}
	filled := func(step, n int64) *ByteStore {
		st := NewByteStore()
		for off := int64(0); off < window; off += step {
			st.WriteAt(src[:n], off)
		}
		return st
	}
	b.Run("dense/write", func(b *testing.B) { dense(b, NewByteStore(), false) })
	b.Run("dense/read", func(b *testing.B) { dense(b, filled(chunk, chunk), true) })
	b.Run("strided/write", func(b *testing.B) { strided(b, NewByteStore(), false) })
	b.Run("strided/read", func(b *testing.B) { strided(b, filled(stride, row), true) })
}
