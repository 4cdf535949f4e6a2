package cliutil

import (
	"os"
	"path/filepath"
	"testing"
)

func TestStartProfilesWritesBothFiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	stop, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Fatalf("%s: missing or empty (%v)", path, err)
		}
	}
	// Empty paths start and write nothing.
	if stop, err = StartProfiles("", ""); err != nil || stop() != nil {
		t.Fatalf("no-op profiles failed: %v", err)
	}
	if _, err := StartProfiles(filepath.Join(dir, "missing", "cpu.out"), ""); err == nil {
		t.Fatal("an uncreatable profile path must be reported")
	}
}
