package workload

import (
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"incastproxy/internal/netsim"
	"incastproxy/internal/obs"
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
//
// Every row, the scenario's included, was re-recorded once more when
// rng.Source stopped reproducing math/rand's stream and became SplitMix64:
// every spray key and RED draw changed, so ict, the counters, events,
// snapCRC, physCRC and fct moved with them. cfgHash did not, and must not:
// the Spec was untouched. That the simulated behaviour held was checked
// against the distribution over seeds, not these rows (100 runs of every
// Fig 2L/2R/3 quick-sweep cell per scheme, EXPERIMENTS.md).
//
// cfgHash alone was re-recorded once more, on the incast rows, when config
// hashing became an exact walk over the spec's non-zero scalars
// (fingerprint): a size, duration or rate hashes as its raw integer, not as
// ByteSize's or Duration's rounded String, and a zero field adds no line, so
// a field no spec sets can be deleted without moving a hash. Every other
// column held byte for byte, and the scenario row, which hashes nothing,
// passed unedited.
//
// snapCRC and physCRC alone were re-recorded once more, on the three adaptive
// rows, when the controller's hysteresis detector became a latched onset
// instant: the control_* series changed (control_onsets_total reads 1, there
// is no control_decays_total, no control_detect_to_steer_us window, and the
// detection latency is timed from the latched onset), while ict, events,
// every counter, cfgHash and fct held byte for byte and the other rows passed
// unedited.
//
// The three adaptive rows alone were re-recorded once more when the
// controller dropped its direct-path prober and probe-RTT gates and moved
// its proxy prober onto the idle host beside the proxy: one prober fewer
// draws one seed fewer from the epoch's stream, so every flow's spray and
// RED draws moved with it, and the proxy probes stopped queueing in a
// sender's NIC. Every column but cfgHash moved on those rows; the other rows
// passed unedited.
//
// snapCRC and physCRC alone were re-recorded once more, on every incast and
// stress row, when the netsim_queue_corrupted_total and
// netsim_fabric_corrupted_total series (always zero: no port destroys a
// packet) left the manifest. Each row's manifest text equalled the old one
// with its corrupted lines removed, byte for byte; every other column held.
//
// fct alone was re-recorded once more, on the cell/proxy-naive row, when the
// naive proxy's down-leg stopped sending each upstream arrival as a packet of
// that arrival's size and became a fixed-size sender whose limit the
// arrivals raise. It now cuts the relayed bytes into full packets with the
// short tail last, so a tail that overtook earlier packets upstream no
// longer goes out mid-stream; the mean FCT fell by 7,680 ps and the P50 by
// 7,680 ps. ict,
// events, every counter, cfgHash, snapCRC and physCRC held; the other rows
// passed unedited.
type golden struct {
	ict                                                    units.Duration
	events, sent, retx, to, nacks, marked, rxDrops, pxTrim uint64
	cfgHash                                                uint64
	snapCRC                                                uint32
	// physCRC is snapCRC over the manifest text with every sim_* line (the
	// engine's own event counters and clock) removed: what is simulated,
	// apart from how many events the engine spent on it.
	physCRC uint32
	// fct is the receiver-side FlowFCT summary.
	fct stats.DurationSummary
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
	if got := goldenOf(rr); got != want {
		t.Errorf("golden mismatch\n got %+v\nwant %+v", got, want)
	}
}

// checkSeriesOnce fails a manifest whose metrics list a series name more than
// once. The registry's collectors append what they emit, so two layers
// exporting one name would both be listed (as one name in two of its maps
// was not).
func checkSeriesOnce(t *testing.T, m obs.Snapshot) {
	t.Helper()
	seen := map[string]bool{}
	once := func(name string) {
		if seen[name] {
			t.Errorf("manifest lists series %s twice", name)
		}
		seen[name] = true
	}
	for _, v := range append(m.Counters, m.Gauges...) {
		once(v.Name)
	}
	for _, h := range m.Histograms {
		once(h.Name)
	}
}

func fct(n int, min, mean, max, p50, p90, p99, p999 units.Duration) stats.DurationSummary {
	return stats.DurationSummary{N: n, Min: min, Mean: mean, Max: max, P50: p50, P90: p90, P99: p99, P999: p999}
}

// goldenCell is the golden rows' Fig 2 cell: degree 8, 40 MB.
func goldenCell(s Scheme) Spec {
	return Spec{Scheme: s, Degree: 8, TotalBytes: 40 * units.MB, Runs: 1, Seed: 7}
}

// goldenCross and goldenCrash are FigureAdaptive's two stress rows at
// degree 4: cross traffic through the proxy ToR, and a proxy crash.
func goldenCross(s Scheme) Spec {
	sp := Spec{Scheme: s, Degree: 4, TotalBytes: 40 * units.MB, Runs: 1, Seed: 7}
	sp.CrossTraffic = CrossTrafficSpec{Flows: 2, Bytes: 40 * units.MB}
	sp.IncastDelay = 2 * units.Millisecond
	return sp
}

func goldenCrash(s Scheme) Spec {
	sp := Spec{Scheme: s, Degree: 4, TotalBytes: 40 * units.MB, Runs: 1, Seed: 7}
	sp.ProxyCrashAt = units.Millisecond
	sp.ProxyRestartAfter = 50 * units.Millisecond
	sp.MaxSimTime = 2 * units.Second
	return sp
}

// TestEpochGolden pins the incast, stress, and scenario runs that the figures,
// the benchmark, and the examples are built from, and that each incast and
// stress row's manifest lists every series once.
func TestEpochGolden(t *testing.T) {
	cell, cross, crash := goldenCell, goldenCross, goldenCrash
	rows := []struct {
		name string
		spec Spec
		want golden
	}{
		{name: "cell/baseline", spec: cell(Baseline),
			want: golden{110593669440, 379122, 38575, 11903, 8, 0, 3638, 11903, 0, 0x12d1c849f98bc19a, 0x4924af56, 0x25f6c157,
				fct(8, 90301875840, 100930041480, 110593669440, 102427908000, 107778975936, 110312200089, 110565522504)}},
		{name: "cell/proxy-naive", spec: cell(ProxyNaive),
			want: golden{5351707840, 520601, 32056, 5384, 8, 0, 3979, 0, 0, 0x4c43d5ff6eb8673d, 0x70949ae7, 0x73082166,
				fct(8, 5121001600, 5290408440, 5351707840, 5323930240, 5350979168, 5351634972, 5351700553)}},
		{name: "cell/proxy-streamlined", spec: cell(ProxyStreamlined),
			want: golden{5921712480, 1708772, 165776, 139104, 0, 139104, 0, 0, 139104, 0x40317b443c0b53ba, 0xc6bc844d, 0xc4c08944,
				fct(8, 5920152480, 5921112480, 5921712480, 5921292480, 5921628480, 5921704080, 5921711640)}},
		{name: "cell/proxy-inferring", spec: cell(ProxyInferring),
			want: golden{5270443360, 532172, 38575, 11903, 0, 11903, 0, 0, 0, 0x499015a7804c51eb, 0xa4d8d64f, 0x98530f93,
				fct(8, 5212363360, 5237608360, 5270443360, 5235763360, 5264899360, 5269888960, 5270387920)}},
		{name: "cell/adaptive", spec: cell(SchemeAdaptive),
			want: golden{5204600000, 1126862, 106457, 79785, 0, 79785, 8, 0, 79785, 0x97fb504f7ef30cf0, 0x02abc2d9, 0x6f0622fb,
				fct(8, 2795200000, 4902660000, 5204600000, 5203940000, 5204516000, 5204591600, 5204599160)}},
		{name: "cross/baseline", spec: cross(Baseline),
			want: golden{92488075840, 943048, 35324, 8656, 4, 0, 2804, 8656, 0, 0x647c4f4ead84b646, 0x5289c77a, 0x1f92388f,
				fct(4, 78314743680, 83386682080, 90488075840, 82371954400, 89264606624, 90365728918, 90475841147)}},
		{name: "cross/proxy-streamlined", spec: cross(ProxyStreamlined),
			want: golden{10659756640, 2644682, 171938, 145270, 0, 145270, 0, 0, 201020, 0x19e75f89e6ca94a6, 0x73fba733, 0xb19c6bac,
				fct(4, 8379990880, 8589528560, 8659756640, 8659183360, 8659603424, 8659741318, 8659755107)}},
		{name: "cross/adaptive", spec: cross(SchemeAdaptive),
			want: golden{11433005600, 1113279, 35198, 0, 0, 0, 4, 8530, 27831, 0x6ba9277a89a31714, 0xb2571df8, 0x60e7b4df,
				fct(4, 9429945120, 9431455360, 9433005600, 9431435360, 9432945600, 9432999600, 9433005000)}},
		{name: "crash/baseline", spec: crash(Baseline),
			want: golden{90424955840, 360302, 35325, 8657, 4, 0, 2939, 8657, 0, 0xaa26b93be54192ed, 0x0726f15d, 0x4c12e8af,
				fct(4, 78263143680, 85325807440, 90424955840, 86307565120, 90414191840, 90423879440, 90424848200)}},
		{name: "crash/proxy-streamlined", spec: crash(ProxyStreamlined),
			want: golden{560547185440, 920228, 67483, 40815, 8, 14143, 0, 0, 20082, 0x94b605aeb386310d, 0xbd9c8183, 0xf3fdfd5b,
				fct(4, 560508195200, 560526795720, 560547185440, 560525901120, 560544071488, 560546874044, 560547154300)}},
		{name: "crash/adaptive", spec: crash(SchemeAdaptive),
			want: golden{77975952960, 574691, 62115, 16492, 4, 13620, 662, 2872, 19562, 0x3696671ecc62bf07, 0x4728b8be, 0xd2e0e10c,
				fct(4, 73884042240, 75930387600, 77975952960, 75930777600, 77964972960, 77974854960, 77975843160)}},
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
			checkSeriesOnce(t, res.Runs[0].Manifest.Metrics)
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
		wantDone := map[netsim.FlowID]units.Duration{1: 2164840000, 2: 2669500000, 3: 2175910080, 4: 82170240}
		if res.Makespan != 2669500000 || res.Events != 52002 || !reflect.DeepEqual(res.Done, wantDone) {
			t.Errorf("makespan=%d events=%d done=%v", res.Makespan, res.Events, res.Done)
		}
	})
}
