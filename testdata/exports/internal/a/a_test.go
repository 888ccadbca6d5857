package a

import "testing"

func TestTestOnly(t *testing.T) {
	if (Spec{N: 2}).Len() != len(Spec{N: 2}.Generate()) || Free(3) != 0 || New().Decode(1) != 1 {
		t.Fatal("fixture")
	}
}
