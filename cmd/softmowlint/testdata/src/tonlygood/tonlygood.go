// Package tonlygood references every function it declares from
// production code, exempts init, and annotates the one probe it keeps for
// tests.
package tonlygood

import "sort"

// box is generic: references through an instantiation count.
type box[T any] struct{ v T }

func (b box[T]) get() T { return b.v }

func newBox[T any](v T) box[T] { return box[T]{v: v} }

// byLen sorts strings by length; sort.Interface names its methods.
type byLen []string

func (s byLen) Len() int           { return len(s) }
func (s byLen) Less(i, j int) bool { return len(s[i]) < len(s[j]) }
func (s byLen) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// Longest is referenced from init.
func Longest(xs []string) string {
	sort.Sort(byLen(xs))
	return xs[len(xs)-1]
}

// Probe reads state for tests only, and says so.
//
//softmow:allow testonly read-only probe the fixture's tests use
func Probe() int { return newBox(1).get() }

var longest string

func init() {
	longest = Longest([]string{"a", "bcd", "ef"})
	_ = newBox(longest).get()
}
