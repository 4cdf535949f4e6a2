package obs

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"strings"
)

// Manifest identifies one run well enough to reproduce and compare it: the
// seed, a human-readable fingerprint of the effective configuration, a hash
// of that fingerprint, and the final metric snapshot. Embedded in workload
// results, it is the provenance record the figures pipeline and future
// before/after perf comparisons key on.
type Manifest struct {
	Seed       int64
	Config     string
	ConfigHash uint64
	Metrics    Snapshot
}

// NewManifest builds a manifest, hashing the config fingerprint.
func NewManifest(seed int64, config string, metrics Snapshot) *Manifest {
	return &Manifest{
		Seed:       seed,
		Config:     config,
		ConfigHash: Fingerprint(config),
		Metrics:    metrics,
	}
}

// Fingerprint hashes a configuration string (FNV-1a 64).
func Fingerprint(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// String renders the one-line provenance header tools print above results.
func (m *Manifest) String() string {
	if m == nil {
		return "manifest: none"
	}
	return fmt.Sprintf("manifest: seed=%d config-hash=%016x", m.Seed, m.ConfigHash)
}

// WriteJSON serializes the manifest deterministically: fixed key order,
// sorted metrics. Counters and gauges share the "metrics" object; each
// histogram is an object under "histograms" with its bucket bounds, its
// per-bucket counts (the last one the +Inf bucket), its sum and its count.
func (m *Manifest) WriteJSON(w io.Writer) error {
	if m == nil {
		_, err := io.WriteString(w, "null\n")
		return err
	}
	cfg, err := json.Marshal(m.Config)
	if err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "{\n  \"seed\": %d,\n  \"config\": %s,\n  \"config_hash\": \"%016x\",\n  \"metrics\": {",
		m.Seed, cfg, m.ConfigHash)
	sep := "\n"
	for _, vs := range [][]NamedValue{m.Metrics.Counters, m.Metrics.Gauges} {
		for _, v := range vs {
			name, err := json.Marshal(v.Name)
			if err != nil {
				return err
			}
			fmt.Fprintf(&b, "%s    %s: %d", sep, name, v.Value)
			sep = ",\n"
		}
	}
	b.WriteString("\n  },\n  \"histograms\": {")
	sep = "\n"
	for _, h := range m.Metrics.Histograms {
		name, err := json.Marshal(h.Name)
		if err != nil {
			return err
		}
		body, err := json.Marshal(h)
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "%s    %s: %s", sep, name, body)
		sep = ",\n"
	}
	b.WriteString("\n  }\n}\n")
	_, err = io.WriteString(w, b.String())
	return err
}
