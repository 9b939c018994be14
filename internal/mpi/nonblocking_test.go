package mpi

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/sim"
)

func TestIsendIrecvBasic(t *testing.T) {
	var got []byte
	var src, tag int
	runWorld(t, 2, func(r *Rank) {
		if r.Rank() == 0 {
			req := r.Isend(1, 9, []byte("async"))
			req.Wait()
		} else {
			req := r.Irecv(0, 9)
			got, src, tag = req.Wait()
		}
	})
	if string(got) != "async" || src != 0 || tag != 9 {
		t.Fatalf("got %q from src=%d tag=%d", got, src, tag)
	}
}

func TestIsendOverlapsCompute(t *testing.T) {
	// A rank that computes while its Isend drains must finish no later
	// than one that sends blocking and then computes.
	var blocking, overlapped float64
	const work = 10_000_000
	payload := make([]byte, 1<<20)
	blocking = runWorld(t, 2, func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(1, 1, payload)
			r.Compute(work)
		} else {
			r.Recv(0, 1)
		}
	})
	overlapped = runWorld(t, 2, func(r *Rank) {
		if r.Rank() == 0 {
			req := r.Isend(1, 1, payload)
			r.Compute(work)
			req.Wait()
		} else {
			r.Recv(0, 1)
		}
	})
	if overlapped > blocking {
		t.Fatalf("overlapped run (%g) slower than blocking (%g)", overlapped, blocking)
	}
	if overlapped == blocking {
		t.Fatalf("overlap bought nothing: both %g", blocking)
	}
}

func TestIsendBufferReuseSafe(t *testing.T) {
	var got []byte
	runWorld(t, 2, func(r *Rank) {
		if r.Rank() == 0 {
			buf := []byte("keep")
			req := r.Isend(1, 1, buf)
			copy(buf, "junk") // payload was copied at issue
			req.Wait()
		} else {
			got, _, _ = r.Recv(0, 1)
		}
	})
	if string(got) != "keep" {
		t.Fatalf("Isend did not copy its buffer: %q", got)
	}
}

func TestIrecvInteroperatesWithSend(t *testing.T) {
	// Blocking sends matched by nonblocking receives and vice versa, with
	// deterministic earliest-arrival matching preserved.
	var order []int
	runWorld(t, 3, func(r *Rank) {
		switch r.Rank() {
		case 1, 2:
			r.Send(0, 5, []byte{byte(r.Rank())})
		case 0:
			a := r.Irecv(AnySource, 5)
			b := r.Irecv(AnySource, 5)
			da, _, _ := a.Wait()
			db, _, _ := b.Wait()
			order = []int{int(da[0]), int(db[0])}
		}
	})
	if len(order) != 2 || order[0] == order[1] {
		t.Fatalf("bad matching: %v", order)
	}
}

func TestWaitall(t *testing.T) {
	const n = 4
	counts := make([]int, n)
	runWorld(t, n, func(r *Rank) {
		reqs := make([]*Request, 0, 2*(n-1))
		for dst := 0; dst < n; dst++ {
			if dst == r.Rank() {
				continue
			}
			reqs = append(reqs, r.Isend(dst, 3, []byte{byte(r.Rank())}))
			reqs = append(reqs, r.Irecv(dst, 3))
		}
		r.Waitall(reqs...)
		for _, q := range reqs {
			if !q.Done() {
				panic("Waitall left a request pending")
			}
		}
		counts[r.Rank()] = len(reqs)
	})
	for rk, c := range counts {
		if c != 2*(n-1) {
			t.Fatalf("rank %d completed %d requests", rk, c)
		}
	}
}

func TestTestDoesNotAdvanceClock(t *testing.T) {
	runWorld(t, 2, func(r *Rank) {
		if r.Rank() == 0 {
			r.Compute(1_000_000) // give rank 1 a head start on its probe loop
			r.Send(1, 2, []byte("x"))
		} else {
			req := r.Irecv(0, 2)
			before := r.Now()
			ready := req.Test()
			if r.Now() != before {
				panic(fmt.Sprintf("Test moved the clock %g -> %g", before, r.Now()))
			}
			if ready {
				// Plausible only if the message already arrived; Wait must
				// then return immediately.
				if !req.Done() {
					panic("Test reported ready but request not done")
				}
			}
			data, _, _ := req.Wait()
			if string(data) != "x" {
				panic("wrong payload")
			}
		}
	})
}

func TestNonblockingDeterministic(t *testing.T) {
	run := func() float64 {
		return runWorld(t, 4, func(r *Rank) {
			next := (r.Rank() + 1) % r.Size()
			prev := (r.Rank() + r.Size() - 1) % r.Size()
			s := r.Isend(next, 1, make([]byte, 64<<10))
			q := r.Irecv(prev, 1)
			r.Compute(500_000)
			q.Wait()
			s.Wait()
		})
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic makespans: %g vs %g", a, b)
	}
}

func TestWaitallRejectsForeignRequest(t *testing.T) {
	var leaked *Request
	_, err := Simulate(testConfig(2, 1), 2, func(r *Rank) {
		if r.Rank() == 0 {
			leaked = r.Isend(1, 1, []byte("x"))
			leaked.Wait()
		} else {
			r.Recv(0, 1)
			if leaked != nil {
				r.Waitall(leaked)
			}
		}
	})
	if err == nil {
		t.Fatal("Waitall accepted another rank's request")
	}
}

// TestDeadlockReportNamesReceive pins the exact deadlock report of a
// 2-rank world stuck in receives. Block reasons are rendered only when the
// report is built, so this is the check that the lazily formatted reasons
// still read "Recv(src=S, tag=T)" and "Wait(Irecv src=S, tag=T)".
func TestDeadlockReportNamesReceive(t *testing.T) {
	cases := []struct {
		name string
		body func(r *Rank)
		want string
	}{
		{"recv", func(r *Rank) {
			if r.Rank() == 0 {
				r.Recv(1, 5)
			} else {
				r.Compute(2_500_000) // 2.5 ms at the test rate of 1e9 updates/s
				r.Recv(AnySource, AnyTag)
			}
		}, "sim: deadlock, 2 processes blocked: " +
			"rank0@0.000000: Recv(src=1, tag=5); rank1@0.002500: Recv(src=-1, tag=-1)"},
		{"irecv-wait", func(r *Rank) {
			if r.Rank() == 0 {
				r.Irecv(1, 3).Wait()
			} else {
				q := r.Irecv(0, 4)
				r.Compute(2_500_000)
				q.Wait()
			}
		}, "sim: deadlock, 2 processes blocked: " +
			"rank0@0.000000: Wait(Irecv src=1, tag=3); rank1@0.002500: Wait(Irecv src=0, tag=4)"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Simulate(testConfig(2, 1), 2, c.body)
			var dl *sim.DeadlockError
			if !errors.As(err, &dl) {
				t.Fatalf("err = %v, want a deadlock", err)
			}
			if got := err.Error(); got != c.want {
				t.Fatalf("deadlock report\n got %q\nwant %q", got, c.want)
			}
		})
	}
}
