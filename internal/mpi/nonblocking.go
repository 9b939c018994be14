package mpi

// Request is the handle of a nonblocking operation started by Isend or
// Irecv. It is owned by the rank that started it and must only be used from
// that rank's body function. Complete it with Wait (or Waitall), or poll it
// with Test; a completed request is inert and further Wait/Test calls
// return immediately.
type Request struct {
	r      *Rank
	isSend bool
	done   bool

	// Send side: the time the sender CPU is free (software overhead + NIC
	// injection already charged by post at issue time).
	senderFree float64

	// Recv side: the posted envelope and, once matched, the delivery.
	src, tag         int
	data             []byte
	fromSrc, fromTag int
}

// Isend starts a nonblocking buffered send. The payload is copied
// immediately, so the caller may reuse the buffer as soon as Isend returns.
// All sender-side costs (software overhead, NIC injection) are charged in
// virtual time exactly as Send charges them — the message's arrival at dst
// is identical to a blocking Send issued at the same instant — but the
// caller's clock does not advance until Wait.
func (r *Rank) Isend(dst, tag int, data []byte) *Request {
	free := r.post(dst, tag, data)
	return &Request{r: r, isSend: true, senderFree: free}
}

// Irecv posts a nonblocking receive for a message matching (src, tag).
// src may be AnySource and tag may be AnyTag. Matching happens at Wait or
// Test time, against the same deterministic earliest-arrival-then-lowest-seq
// order Recv uses, so blocking and nonblocking receives interoperate.
func (r *Rank) Irecv(src, tag int) *Request {
	return &Request{r: r, src: src, tag: tag}
}

// Wait blocks until the request completes and returns the received payload
// and envelope for a receive (nil, -1, -1 for a send). For a send the
// caller's clock advances to the time the sender CPU was free; if the clock
// has already passed that point the send completed in the background for
// free — that overlap is the entire point of the nonblocking interface.
func (q *Request) Wait() (data []byte, fromSrc, fromTag int) {
	if q.done {
		return q.data, q.fromSrc, q.fromTag
	}
	if q.isSend {
		q.r.proc.AdvanceTo(q.senderFree)
		q.done = true
		q.fromSrc, q.fromTag = -1, -1
		return nil, -1, -1
	}
	r := q.r
	for {
		if m := r.takeMatch(q.src, q.tag); m != nil {
			r.proc.AdvanceTo(m.arrival)
			q.done = true
			q.data, q.fromSrc, q.fromTag = m.data, m.src, m.tag
			r.world.putMsg(m)
			return q.data, q.fromSrc, q.fromTag
		}
		r.waiting = recvWait{src: q.src, tag: q.tag, irecv: true}
		r.hasWaiting = true
		r.proc.Block(&r.waiting)
	}
}

// Test reports whether the request has completed, without blocking and
// without advancing the caller's clock. A send has completed once the
// sender CPU is free; a receive has completed once a matching message has
// arrived (arrival <= now), in which case the message is consumed and its
// payload becomes available from Wait. Test never moves virtual time, so a
// false result at time t stays false until the caller advances past the
// completion time or (for receives) a matching message arrives.
func (q *Request) Test() bool {
	if q.done {
		return true
	}
	if q.isSend {
		if q.r.Now() >= q.senderFree {
			q.done = true
			q.fromSrc, q.fromTag = -1, -1
			return true
		}
		return false
	}
	if m := q.r.takeMatchBefore(q.src, q.tag, q.r.Now()); m != nil {
		q.done = true
		q.data, q.fromSrc, q.fromTag = m.data, m.src, m.tag
		q.r.world.putMsg(m)
		return true
	}
	return false
}

// Done reports whether the request has already been completed by a
// previous Wait or successful Test.
func (q *Request) Done() bool { return q.done }

// Waitall completes every request in order. Payloads of receives remain
// available from each request's Wait (which returns immediately once done).
func (r *Rank) Waitall(reqs ...*Request) {
	for _, q := range reqs {
		if q == nil {
			continue
		}
		if q.r != r {
			panic("mpi: Waitall on a request owned by another rank")
		}
		q.Wait()
	}
}

// takeMatchBefore is takeMatch restricted to messages that have already
// arrived by the cutoff time — used by Test, which must not advance the
// clock and therefore cannot deliver a message from the future.
func (r *Rank) takeMatchBefore(src, tag int, cutoff float64) *message {
	w := recvWait{src: src, tag: tag}
	bestIdx := -1
	for i, m := range r.inbox {
		if !matches(w, m) || m.arrival > cutoff {
			continue
		}
		if bestIdx == -1 {
			bestIdx = i
			continue
		}
		b := r.inbox[bestIdx]
		if m.arrival < b.arrival || (m.arrival == b.arrival && m.seq < b.seq) {
			bestIdx = i
		}
	}
	if bestIdx == -1 {
		return nil
	}
	m := r.inbox[bestIdx]
	r.inbox = append(r.inbox[:bestIdx], r.inbox[bestIdx+1:]...)
	return m
}
