// Package a declares names that share their names with live ones, so only
// type resolution tells which of them a non-test file uses.
package a

// Spec's Generate and Len share their names with Live's, which main calls.
type Spec struct{ N int }

func (s Spec) Generate() []int { return make([]int, s.N) }

func (s Spec) Len() int { return s.N }

type Live struct{}

func (Live) Generate() []int { return nil }

func (Live) Len() int { return 0 }

// Name's String method is called by fmt alone.
type Name string

func (n Name) String() string { return string(n) }

// Codec's Encode is called through the interface; Decode never is. Fixed
// names its parameters apart from Codec's: signatures match by type.
type Codec interface {
	Encode(v int) int
	Decode(v int) int
}

type Fixed struct{}

func (Fixed) Encode(x int) int { return x }

func (Fixed) Decode(x int) int { return x }

func New() Codec { return Fixed{} }

// Free refers to itself alone.
func Free(n int) int {
	if n == 0 {
		return 0
	}
	return Free(n - 1)
}
