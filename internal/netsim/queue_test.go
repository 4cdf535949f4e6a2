package netsim

import (
	"testing"
	"testing/quick"

	"incastproxy/internal/rng"
	"incastproxy/internal/units"
)

func dataPkt(id uint64, size units.ByteSize) *Packet {
	return &Packet{ID: id, Kind: Data, Size: size, FullSize: size}
}

func newQueue(cfg QueueConfig, src *rng.Source) *queue { return &queue{cfg: cfg, src: src} }

func TestQueueFIFOOrder(t *testing.T) {
	q := newQueue(QueueConfig{Capacity: 10000}, nil)
	for i := uint64(1); i <= 5; i++ {
		if !q.enqueue(0, dataPkt(i, 100)) {
			t.Fatalf("enqueue %d failed", i)
		}
	}
	for i := uint64(1); i <= 5; i++ {
		p := q.pop()
		if p == nil || p.ID != i {
			t.Fatalf("pop = %v, want ID %d", p, i)
		}
	}
	if q.pop() != nil {
		t.Fatal("pop on empty queue should be nil")
	}
}

func TestQueueDropTail(t *testing.T) {
	q := newQueue(QueueConfig{Capacity: 250}, nil)
	if !q.enqueue(0, dataPkt(1, 100)) || !q.enqueue(0, dataPkt(2, 100)) {
		t.Fatal("first two packets should fit")
	}
	if q.enqueue(0, dataPkt(3, 100)) {
		t.Fatal("third packet should be dropped (250B capacity)")
	}
	if q.Stats.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", q.Stats.Dropped)
	}
}

func TestQueueUnboundedWhenCapacityZero(t *testing.T) {
	q := newQueue(QueueConfig{}, nil)
	for i := uint64(0); i < 1000; i++ {
		if !q.enqueue(0, dataPkt(i, 1500)) {
			t.Fatal("unbounded queue must never drop")
		}
	}
	if q.Stats.Dropped != 0 {
		t.Fatal("unbounded queue recorded drops")
	}
}

func TestQueueTrimOnOverflow(t *testing.T) {
	q := newQueue(QueueConfig{Capacity: 250, Trim: true}, nil)
	q.enqueue(0, dataPkt(1, 100))
	q.enqueue(0, dataPkt(2, 100))
	p3 := dataPkt(3, 1500)
	if !q.enqueue(0, p3) {
		t.Fatal("overflowing packet should be trimmed, not dropped")
	}
	if !p3.Trimmed || p3.Size != ControlSize || p3.FullSize != 1500 {
		t.Fatalf("trim result: %+v", p3)
	}
	if q.Stats.Trimmed != 1 {
		t.Fatalf("Trimmed = %d", q.Stats.Trimmed)
	}
	// Trimmed header must come out before untrimmed data (priority band).
	if got := q.pop(); got.ID != 3 {
		t.Fatalf("pop = %d, want trimmed header first", got.ID)
	}
}

func TestControlPacketsUsePriorityBand(t *testing.T) {
	q := newQueue(QueueConfig{Capacity: 1 << 20}, nil)
	q.enqueue(0, dataPkt(1, 1500))
	ackP := &Packet{ID: 2, Kind: Ack, Size: ControlSize}
	q.enqueue(0, ackP)
	if got := q.pop(); got.ID != 2 {
		t.Fatalf("ACK should dequeue first, got %d", got.ID)
	}
	if got := q.pop(); got.ID != 1 {
		t.Fatalf("data should follow, got %d", got.ID)
	}
}

func TestECNMarkingThresholds(t *testing.T) {
	cfg := QueueConfig{Capacity: 1 << 30, MarkLow: 1000, MarkHigh: 2000}
	q := newQueue(cfg, rng.New(1))
	// Below MarkLow: never marked.
	p := dataPkt(1, 500)
	q.enqueue(0, p)
	if p.ECN {
		t.Fatal("packet below MarkLow must not be marked")
	}
	// Push occupancy above MarkHigh: always marked.
	q.enqueue(0, dataPkt(2, 1500))
	p3 := dataPkt(3, 500)
	q.enqueue(0, p3) // occupancy 2500 > 2000
	if !p3.ECN {
		t.Fatal("packet above MarkHigh must be marked")
	}
	if q.Stats.Marked == 0 {
		t.Fatal("marking not counted")
	}
}

func TestECNMarkingProbabilisticBetweenThresholds(t *testing.T) {
	marked, total := 0, 0
	src := rng.New(7)
	for i := 0; i < 2000; i++ {
		q := newQueue(QueueConfig{Capacity: 1 << 30, MarkLow: 1000, MarkHigh: 2000}, src)
		q.enqueue(0, dataPkt(1, 1000)) // occupancy 1000 = MarkLow, unmarked
		p := dataPkt(2, 500)           // occupancy 1500, mid-range: p(mark)=0.5
		q.enqueue(0, p)
		total++
		if p.ECN {
			marked++
		}
	}
	frac := float64(marked) / float64(total)
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("mid-threshold mark fraction = %v, want ~0.5", frac)
	}
}

func TestMarkingDisabled(t *testing.T) {
	q := newQueue(QueueConfig{Capacity: 1 << 30}, nil)
	for i := uint64(0); i < 100; i++ {
		p := dataPkt(i, 1500)
		q.enqueue(0, p)
		if p.ECN {
			t.Fatal("marking disabled but packet marked")
		}
	}
}

func TestQueueHighWatermark(t *testing.T) {
	q := newQueue(QueueConfig{Capacity: 1 << 20}, nil)
	q.enqueue(0, dataPkt(1, 1000))
	q.enqueue(0, dataPkt(2, 1000))
	q.pop()
	q.enqueue(0, dataPkt(3, 100))
	if q.Stats.MaxBytes != 2000 {
		t.Fatalf("MaxBytes = %v, want 2000", q.Stats.MaxBytes)
	}
}

// Property: bytes are conserved — every enqueued packet is either popped,
// dropped, or still queued; occupancy never goes negative.
func TestPropertyQueueConservation(t *testing.T) {
	f := func(seed int64, ops []uint8) bool {
		src := rng.New(seed)
		q := newQueue(QueueConfig{Capacity: 5000, Trim: seed%2 == 0}, src)
		var id uint64
		accepted, popped := 0, 0
		for _, op := range ops {
			if op%3 == 0 {
				if q.pop() != nil {
					popped++
				}
				continue
			}
			id++
			size := units.ByteSize(int(op)%1500 + 1)
			var p *Packet
			if op%5 == 0 {
				p = &Packet{ID: id, Kind: Ack, Size: ControlSize}
			} else {
				p = dataPkt(id, size)
			}
			if q.enqueue(0, p) {
				accepted++
			}
		}
		if q.data.bytes < 0 || q.prio.bytes < 0 {
			return false
		}
		remaining := 0
		for q.pop() != nil {
			remaining++
		}
		return accepted == popped+remaining && q.data.bytes == 0 && q.prio.bytes == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestKindString(t *testing.T) {
	if Data.String() != "DATA" || Ack.String() != "ACK" || Nack.String() != "NACK" {
		t.Fatal("Kind strings wrong")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind should still print")
	}
}

func TestPacketString(t *testing.T) {
	p := dataPkt(1, 1500)
	if p.String() == "" {
		t.Fatal("empty packet string")
	}
}
