package cliutil

import (
	"fmt"
	"os"
)

// Prog is a command-line program, named as it prefixes its error reports.
// A program whose output is lost must not report success, so its Printf
// ends it with exit status 1 when standard output cannot be written.
type Prog string

// Printf writes to standard output and exits 1 if the write fails.
func (p Prog) Printf(format string, args ...any) {
	if _, err := fmt.Fprintf(os.Stdout, format, args...); err != nil {
		p.Fatal(err)
	}
}

// Check exits 1, reporting err, if err is not nil.
func (p Prog) Check(err error) {
	if err != nil {
		p.Fatal(err)
	}
}

// Fatal reports err on standard error, prefixed with the program's name,
// and exits 1.
func (p Prog) Fatal(err error) {
	// Best effort: the exit status reports the failure if stderr is gone too.
	_, _ = fmt.Fprintln(os.Stderr, string(p)+":", err)
	os.Exit(1)
}
