package transport

// queue is a FIFO that reuses its backing array. Popping advances a head
// index; when a push finds the array full and at least half of it dead, the
// live part moves to the front instead of the array growing. So a queue
// that is popped as fast as it is pushed (the retransmit queue under
// NACKs, the send log between timeouts) stops allocating, and capacity
// stays within twice the peak length.
type queue[T any] struct {
	items []T
	head  int
}

func (q *queue[T]) len() int { return len(q.items) - q.head }

// live returns the queued items, oldest first; valid until the next push.
func (q *queue[T]) live() []T { return q.items[q.head:] }

func (q *queue[T]) front() T { return q.items[q.head] }

func (q *queue[T]) push(v T) {
	if len(q.items) == cap(q.items) && q.head >= q.len() && q.head > 0 {
		n := copy(q.items, q.items[q.head:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
}

// full reports whether the next push would have to grow the array.
func (q *queue[T]) full() bool { return len(q.items) == cap(q.items) }

// compact drops the queued items keep rejects, in place and in order, for a
// queue whose items die in the middle and not only at the front. If more than
// half the array is still in use it moves to one twice what is kept, so the
// next compaction is at least that many pushes away and capacity stays
// within twice the peak number kept.
func (q *queue[T]) compact(keep func(T) bool) {
	kept := q.items[:0]
	for _, v := range q.live() {
		if keep(v) {
			kept = append(kept, v)
		}
	}
	if 2*len(kept) > cap(kept) {
		kept = append(make([]T, 0, 2*len(kept)), kept...)
	}
	q.items, q.head = kept, 0
}

func (q *queue[T]) pop() {
	q.head++
	if q.head == len(q.items) {
		q.clear()
	}
}

func (q *queue[T]) clear() { q.items, q.head = q.items[:0], 0 }
