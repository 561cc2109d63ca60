// Package tonlybad declares functions and methods that no production file
// of the program references, next to ones that are referenced.
package tonlybad

import "fmt"

// sizer declares Size, so any method named Size counts as used.
type sizer interface{ Size() int }

// Table is a fixture type with used and unused methods.
type Table struct{ rows []string }

// Len is called by Entry below.
func (t *Table) Len() int { return len(t.rows) }

// Size is never called, but sizer declares the name.
func (t *Table) Size() int { return len(t.rows) }

// String is never called, but fmt.Stringer declares the name.
func (t *Table) String() string { return fmt.Sprint(t.rows) }

// Rows is never called, and no interface declares the name.
func (t *Table) Rows() []string { return t.rows } // want testonly

// Entry is referenced by nothing: calling Len does not make it used.
func Entry() int { return (&Table{}).Len() } // want testonly

// onlyTests is called from tonlybad_test.go alone, which the loader
// never parses.
func onlyTests() int { return 1 } // want testonly

// countdown only calls itself.
func countdown(n int) int { // want testonly
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

// helper is referenced by kept's body, so its annotation below is stale.
//
//softmow:allow testonly the reason no longer holds // want staleallow
func helper() int { return 2 }

var _ sizer = (*Table)(nil)

var kept = helper()
