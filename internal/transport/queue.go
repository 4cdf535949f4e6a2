package transport

// queue is a FIFO that reuses its backing array. Popping advances a head
// index; when a push finds the array full and at least half of it dead, the
// live part moves to the front instead of the array growing. So a queue
// that is popped as fast as it is pushed (the sender's retransmit queue
// under NACKs) stops allocating, and capacity stays within twice the peak
// length. It holds sequence numbers.
type queue struct {
	items []int64
	head  int
}

func (q *queue) len() int { return len(q.items) - q.head }

func (q *queue) front() int64 { return q.items[q.head] }

func (q *queue) push(v int64) {
	if len(q.items) == cap(q.items) && q.head >= q.len() && q.head > 0 {
		n := copy(q.items, q.items[q.head:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
}

// reserve makes room for n more pushes in at most one allocation, so that a
// caller that knows its batch (a timeout's flush of the whole flight) does
// not double the array its way there. The live part moves to the front: of
// the same array if that leaves room, else of a new one sized to fit. (Not
// slices.Grow: under the race detector it allocates twice.)
func (q *queue) reserve(n int) {
	if cap(q.items)-len(q.items) >= n {
		return
	}
	items := q.items[:0]
	if live := q.len(); cap(items) < live+n {
		items = make([]int64, 0, live+n)
	}
	q.items, q.head = append(items, q.items[q.head:]...), 0
}

func (q *queue) pop() {
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
}
