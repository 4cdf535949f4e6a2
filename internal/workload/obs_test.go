package workload

import (
	"reflect"
	"strings"
	"testing"

	"incastproxy/internal/topo"
	"incastproxy/internal/units"
)

// fig2Cell is the Fig 2 degree-8 streamlined cell.
func fig2Cell() Spec {
	return Spec{Scheme: ProxyStreamlined, Degree: 8, TotalBytes: 40 * units.MB, Runs: 1, Seed: 7}
}

// pinnedAdaptive sets a field of every nested struct Spec hashes: the fabric
// (an array element included) and the cross traffic, plus the stress timings.
func pinnedAdaptive() Spec {
	sp := Spec{Scheme: SchemeAdaptive, Degree: 4, TotalBytes: 40 * units.MB, Runs: 3, Seed: 7,
		Topo:         topo.DefaultConfig(),
		CrossTraffic: CrossTrafficSpec{Flows: 2, Bytes: 40 * units.MB, Stagger: 10 * units.Microsecond},
		IncastDelay:  2 * units.Millisecond, ProxyCrashAt: units.Millisecond, ProxyRestartAfter: 50 * units.Millisecond}
	sp.Topo.TrimDC[0] = true
	return sp.withDefaults()
}

// Each spec differs from the Fig 2 cell by less than ByteSize's or Duration's
// String rounds away, and two of them simulate a different ICT: the config
// hash must still tell every one of them from the cell.
func TestConfigHashSeparatesSpecsThatDiffer(t *testing.T) {
	cell := fig2Cell()
	fabric := func(change func(*topo.Config)) Spec {
		sp := cell
		sp.Topo = topo.DefaultConfig()
		change(&sp.Topo)
		return sp
	}
	more := cell
	more.TotalBytes += 1000
	for _, c := range []struct {
		name string
		spec Spec
	}{
		{"tor-mark-high-50B", fabric(func(c *topo.Config) { c.TorQueue.MarkHigh -= 50 })},
		{"tor-capacity+5KB", fabric(func(c *topo.Config) { c.TorQueue.Capacity += 5 * units.KB })},
		{"total-bytes+1000B", more},
		{"inter-delay+300ns", fabric(func(c *topo.Config) { c.InterDelay += 300 * units.Nanosecond })},
	} {
		if got, base := c.spec.ConfigHash(), cell.ConfigHash(); got == base {
			t.Errorf("%s: shares the cell's config hash %016x", c.name, base)
		}
	}
}

// The fingerprint text is the config identity every manifest, golden row and
// figure row keys on: pinned here line for line.
func TestFingerprintText(t *testing.T) {
	const fabric = `Topo.Spines=8
Topo.Leaves=8
Topo.ServersPerLeaf=8
Topo.Backbones=64
Topo.BackbonesPerSpine=8
Topo.LinkRate=100000000000
Topo.IntraDelay=1000000
Topo.InterDelay=1000000000
Topo.TorQueue.Capacity=17015000
Topo.TorQueue.MarkLow=33200
Topo.TorQueue.MarkHigh=136950
Topo.BackboneQueue.Capacity=49800000
Topo.BackboneQueue.MarkLow=9960000
Topo.BackboneQueue.MarkHigh=39840000
`
	for _, c := range []struct {
		name string
		spec Spec
		want string
	}{
		{"fig2-cell", fig2Cell().withDefaults(), `Scheme=2
Degree=8
TotalBytes=40000000
Runs=1
` + fabric + `Topo.Spray=true
MaxSimTime=60000000000000
`},
		{"adaptive", pinnedAdaptive(), `Scheme=4
Degree=4
TotalBytes=40000000
Runs=3
` + fabric + `Topo.TrimDC[0]=true
Topo.Spray=true
MaxSimTime=60000000000000
IncastDelay=2000000000
CrossTraffic.Flows=2
CrossTraffic.Bytes=40000000
CrossTraffic.Stagger=10000000
ProxyCrashAt=1000000000
ProxyRestartAfter=50000000000
`},
	} {
		if got := c.spec.fingerprint(); got != c.want {
			t.Errorf("%s: fingerprint\n%s\nwant\n%s", c.name, got, c.want)
		}
	}
}

// A hashed field that is zero contributes no line: zeroing any one field of
// the pinned spec removes exactly that field's line and leaves the others, so
// a field that no spec sets can be added or deleted without moving a hash.
func TestFingerprintOmitsZeroFields(t *testing.T) {
	sp := pinnedAdaptive()
	full := sp.fingerprint()
	for _, l := range specLeaves {
		zeroed := sp
		f := reflect.ValueOf(&zeroed).Elem().FieldByIndex(l.index)
		if l.elem >= 0 {
			f = f.Index(l.elem)
		}
		var want strings.Builder
		found := false
		for _, line := range strings.SplitAfter(full, "\n") {
			if strings.HasPrefix(line, l.path+"=") {
				found = true
				continue
			}
			want.WriteString(line)
		}
		if found == f.IsZero() {
			t.Fatalf("%s: IsZero=%v, has a line=%v, in\n%s", l.path, f.IsZero(), found, full)
		}
		f.SetZero()
		if got := zeroed.fingerprint(); got != want.String() {
			t.Errorf("%s zero: fingerprint\n%s\nwant\n%s", l.path, got, want.String())
		}
	}
}

// A fingerprint walks the leaf list computed at init: no types, no boxing.
func TestFingerprintAllocs(t *testing.T) {
	sp := pinnedAdaptive()
	if n := testing.AllocsPerRun(100, func() { _ = sp.fingerprint() }); n > 2 {
		t.Errorf("fingerprint made %.0f allocations, want <= 2", n)
	}
}
