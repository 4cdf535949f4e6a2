package workload

import (
	"fmt"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"incastproxy/internal/netsim"
	"incastproxy/internal/stats"
	"incastproxy/internal/units"
)

// golden is one pinned run: everything a harness refactor could silently
// move. The numbers were recorded on the commit before the five run paths
// were collapsed onto the epoch harness (two processes, identical), so a
// mismatch means the harness changed what is simulated, not how. The one
// exception is the inferring rows' fct, recorded after LossTracker.Flush got a
// fixed flow order: before that it varied from run to run. events and snapCRC
// were re-recorded, with physCRC and everything else required to hold, when
// links became pipes and an idle hop stopped costing two events, and again
// when a busy hop did (no serialization-end event on a local link).
type golden struct {
	ict                                                    units.Duration
	events, sent, retx, to, nacks, marked, rxDrops, pxTrim uint64
	cfgHash                                                uint64
	snapCRC                                                uint32
	// physCRC is snapCRC over the manifest text with every sim_* line (the
	// engine's own event counters and clock) removed: what is simulated,
	// apart from how many events the engine spent on it.
	physCRC uint32
	// fct is the receiver-side FlowFCT summary; the zero value skips the
	// check (chaos rows: the pre-harness chaos fork never filled it).
	fct stats.DurationSummary
}

// shardDelta is what a sharded run of a row changes. A cut link keeps its
// serialization-end event where a local link has none, so the event count and
// the snapshot are per shard count (Shards = 1, 2); what is simulated is not.
type shardDelta struct {
	events  [2]uint64
	snapCRC [2]uint32
	marked  uint64
	physCRC uint32
}

// physText drops the engine's own series from a manifest's metrics, as text
// or as the lines of its JSON.
func physText(text string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(text, "\n") {
		name := strings.TrimLeft(line, ` "`)
		if !strings.HasPrefix(name, "sim_") && !strings.HasPrefix(name, "# TYPE sim_") {
			b.WriteString(line)
		}
	}
	return b.String()
}

func goldenOf(rr RunResult) golden {
	text := rr.Manifest.Metrics.Text()
	return golden{
		ict: rr.ICT, events: rr.Events, sent: rr.PktsSent, retx: rr.Retransmits,
		to: rr.Timeouts, nacks: rr.Nacks, marked: rr.MarkedAcks,
		rxDrops: rr.ReceiverToRDrops, pxTrim: rr.ProxyToRTrims,
		cfgHash: rr.Manifest.ConfigHash,
		snapCRC: crc32.ChecksumIEEE([]byte(text)),
		physCRC: crc32.ChecksumIEEE([]byte(physText(text))),
		fct:     rr.FlowFCT,
	}
}

func checkGolden(t *testing.T, rr RunResult, want golden) {
	t.Helper()
	if rr.Manifest == nil {
		t.Fatal("run produced no manifest")
	}
	got := goldenOf(rr)
	if want.fct == (stats.DurationSummary{}) {
		got.fct = want.fct
	}
	if got != want {
		t.Errorf("golden mismatch\n got %+v\nwant %+v", got, want)
	}
}

func fct(n int, min, mean, max, p50, p90, p99, p999 units.Duration) stats.DurationSummary {
	return stats.DurationSummary{N: n, Min: min, Mean: mean, Max: max, P50: p50, P90: p90, P99: p99, P999: p999}
}

// TestEpochGolden pins the incast, stress, chaos, and scenario runs that the
// figures, the benchmark, and the examples are built from.
func TestEpochGolden(t *testing.T) {
	cell := func(s Scheme) Spec {
		return Spec{Scheme: s, Degree: 8, TotalBytes: 40 * units.MB, Runs: 1, Seed: 7}
	}
	// FigureAdaptive's two stress rows at degree 4.
	cross := func(s Scheme) Spec {
		sp := Spec{Scheme: s, Degree: 4, TotalBytes: 40 * units.MB, Runs: 1, Seed: 7}
		sp.CrossTraffic = CrossTrafficSpec{Flows: 2, Bytes: 40 * units.MB}
		sp.IncastDelay = 2 * units.Millisecond
		return sp
	}
	crash := func(s Scheme) Spec {
		sp := Spec{Scheme: s, Degree: 4, TotalBytes: 40 * units.MB, Runs: 1, Seed: 7}
		sp.ProxyCrashAt = units.Millisecond
		sp.ProxyRestartAfter = 50 * units.Millisecond
		sp.MaxSimTime = 2 * units.Second
		return sp
	}

	rows := []struct {
		name string
		spec Spec
		want golden
		// sharded, when set, is what Shards = 1 and 2 change: the
		// round-quantized stop lets up to one lookahead round of tail
		// events run, which moves the lifetime event count, the snapshot,
		// and any sender aggregate that accrues in that tail. A round starts
		// at the group's earliest pending event, so a change in which events
		// exist moves the boundaries, and with them the tail, once.
		sharded shardDelta
	}{
		{name: "cell/baseline", spec: cell(Baseline),
			want: golden{114583580160, 378209, 38567, 11895, 8, 0, 3680, 11895, 0, 0x1896a6cd4053a9e1, 0x97ced07a, 0x1fc8832e,
				fct(8, 90301515840, 102421878000, 114583580160, 102454908000, 111741838656, 114299406009, 114555162744)},
			sharded: shardDelta{[2]uint64{378235, 381803}, [2]uint32{0x354e7fa8, 0xf197e0b9}, 3680, 0xe606aedb}},
		{name: "cell/proxy-naive", spec: cell(ProxyNaive),
			want: golden{5351707840, 521134, 32122, 5450, 8, 0, 4706, 0, 0, 0xf2ab302a4ce30bbc, 0xd754d5b7, 0xf5034f3b,
				fct(8, 5098584640, 5280765880, 5351707840, 5324003040, 5348530400, 5351390096, 5351676065)},
			sharded: shardDelta{[2]uint64{541885, 541885}, [2]uint32{0x259e660e, 0x259e660e}, 4706, 0x297f25e6}},
		{name: "cell/proxy-streamlined", spec: cell(ProxyStreamlined),
			want: golden{5921195360, 1707832, 165675, 139003, 0, 139003, 0, 0, 139003, 0xfa8df90155e4dda3, 0xb8c4a8fe, 0x5c5b3531,
				fct(8, 5916515360, 5919890360, 5921195360, 5920415360, 5921111360, 5921186960, 5921194520)},
			sharded: shardDelta{[2]uint64{1712190, 1712397}, [2]uint32{0xf19018e7, 0xb625324c}, 0, 0xdf562a40}},
		{name: "cell/proxy-inferring", spec: cell(ProxyInferring),
			want: golden{5270402400, 532112, 38567, 11895, 0, 11895, 0, 0, 0, 0xc5e884011aa53aef, 0x23fab944, 0x0407abb0,
				fct(8, 5249282400, 5258207400, 5270402400, 5257802400, 5265026400, 5269864800, 5270348640)},
			sharded: shardDelta{[2]uint64{582943, 583356}, [2]uint32{0x293bc95c, 0xb6b15a83}, 1247, 0xb37c00ce}},
		{name: "cell/adaptive", spec: cell(SchemeAdaptive),
			want: golden{5204681920, 1128939, 106653, 79981, 0, 79981, 8, 0, 79982, 0x47303b63bcdf87ac, 0xca52c12e, 0x8aec77c2,
				fct(8, 2796170240, 4901532960, 5204681920, 5203661920, 5204597920, 5204673520, 5204681080)}},
		{name: "cross/baseline", spec: cross(Baseline),
			want: golden{92454235840, 943371, 35321, 8653, 4, 0, 2774, 8653, 0, 0x9c08e7a17c8271fd, 0x8c3deab6, 0x3a19def0,
				fct(4, 78275263680, 84337999760, 90454235840, 84311249760, 89229266624, 90331738918, 90441986147)}},
		{name: "cross/proxy-streamlined", spec: cross(ProxyStreamlined),
			want: golden{10548083680, 2610960, 169099, 142431, 0, 142431, 0, 0, 196667, 0xe329a71fbda7f2ab, 0x266660cb, 0xec8970e3,
				fct(4, 8445419680, 8521645920, 8548083680, 8546540160, 8547639392, 8548039251, 8548079237)}},
		{name: "cross/adaptive", spec: cross(SchemeAdaptive),
			want: golden{11253130720, 979036, 35198, 0, 0, 0, 4, 8530, 11581, 0xeb77e8f8d53923be, 0xdd81fb98, 0xf957dca9,
				fct(4, 9247010720, 9249920720, 9253130720, 9249770720, 9252770720, 9253094720, 9253127120)}},
		{name: "crash/baseline", spec: crash(Baseline),
			want: golden{90452835840, 360667, 35322, 8654, 4, 0, 2773, 8654, 0, 0x403c0d0413f14917, 0xb494e045, 0x007c9d7b,
				fct(4, 78274783680, 84335279760, 90452835840, 84306749760, 89225802624, 90330132518, 90440565507)}},
		{name: "crash/proxy-streamlined", spec: crash(ProxyStreamlined),
			want: golden{560552375040, 920208, 67481, 40813, 8, 14141, 0, 0, 20087, 0x77ecd6181a79a371, 0x3d564fb9, 0x64381689,
				fct(4, 560508212800, 560527110040, 560552375040, 560523926160, 560545232448, 560551660780, 560552303614)}},
		{name: "crash/adaptive", spec: crash(SchemeAdaptive),
			want: golden{81224943680, 586886, 62680, 16734, 4, 13619, 685, 3115, 19500, 0x648bbfebe5f1e90e, 0x30bf8ce3, 0xebe3830e,
				fct(4, 73138442240, 76175185280, 81224943680, 75168677600, 80002734464, 81102722758, 81212721587)}},
	}
	for _, row := range rows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(row.spec)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, res.Runs[0], row.want)
		})
		if row.sharded.physCRC == 0 {
			continue
		}
		for i, shards := range []int{1, 2} {
			i, shards := i, shards
			t.Run(fmt.Sprintf("%s/shards=%d", row.name, shards), func(t *testing.T) {
				t.Parallel()
				spec := row.spec
				spec.Shards = shards
				res, err := Run(spec)
				if err != nil {
					t.Fatal(err)
				}
				want := row.want
				want.events, want.marked = row.sharded.events[i], row.sharded.marked
				want.snapCRC, want.physCRC = row.sharded.snapCRC[i], row.sharded.physCRC
				checkGolden(t, res.Runs[0], want)
			})
		}
	}

	chaos := []struct {
		mode FailoverMode
		want golden
	}{
		{FailoverStandby, golden{ict: 3449500000, events: 131470, sent: 10672, cfgHash: 0x04079023cc8faff9, snapCRC: 0xeabb7238, physCRC: 0x2d088275}},
		{FailoverDirect, golden{ict: 3444600000, events: 104751, sent: 10672, cfgHash: 0xd85f9214e9af4923, snapCRC: 0x8c9c996e, physCRC: 0x43f78260}},
	}
	for _, row := range chaos {
		row := row
		t.Run("chaos/"+row.mode.String(), func(t *testing.T) {
			t.Parallel()
			res, err := RunChaos(quickChaos(row.mode))
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, res.RunResult, row.want)
			if res.FailedOver != 4 || res.RehomedBytes != 8000000 {
				t.Errorf("failedOver=%d rehomed=%d, want 4 and 8000000", res.FailedOver, res.RehomedBytes)
			}
		})
	}

	t.Run("scenario/mixed", func(t *testing.T) {
		t.Parallel()
		// TestScenarioMixedFlows' spec: direct, streamlined (delayed), naive,
		// and intra-DC flows on one fabric.
		res, err := RunScenario(Scenario{Seed: 3, Flows: []FlowSpec{
			{ID: 1, Src: HostRef{0, 0}, Dst: HostRef{1, 0}, Bytes: 2 * units.MB},
			{ID: 2, Src: HostRef{0, 1}, Dst: HostRef{1, 1}, Bytes: 2 * units.MB,
				Start: units.Duration(500 * units.Microsecond),
				Via:   &ProxyRef{Scheme: ProxyStreamlined, At: HostRef{0, 63}}},
			{ID: 3, Src: HostRef{0, 2}, Dst: HostRef{1, 2}, Bytes: 2 * units.MB,
				Via: &ProxyRef{Scheme: ProxyNaive, At: HostRef{0, 62}}},
			{ID: 4, Src: HostRef{1, 3}, Dst: HostRef{1, 4}, Bytes: units.MB},
		}})
		if err != nil {
			t.Fatal(err)
		}
		wantDone := map[netsim.FlowID]units.Duration{1: 2164770880, 2: 2669500000, 3: 2175910080, 4: 82170240}
		if res.Makespan != 2669500000 || res.Events != 52002 || !reflect.DeepEqual(res.Done, wantDone) {
			t.Errorf("makespan=%d events=%d done=%v", res.Makespan, res.Events, res.Done)
		}
	})
}
