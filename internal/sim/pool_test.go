package sim

import "testing"

// TestFreeListMax checks that a bounded list keeps at most Max objects and
// hands them back last in, first out, while an unbounded one keeps all.
func TestFreeListMax(t *testing.T) {
	objs := []*int{new(int), new(int), new(int)}
	bounded := FreeList[int]{Max: 2}
	var unbounded FreeList[int]
	for _, o := range objs {
		bounded.Give(o)
		unbounded.Give(o)
	}
	if got := bounded.Take(); got != objs[1] {
		t.Fatalf("bounded list returned %p, want the second object %p", got, objs[1])
	}
	if got := bounded.Take(); got != objs[0] {
		t.Fatalf("bounded list returned %p, want the first object %p", got, objs[0])
	}
	if got := bounded.Take(); got != nil {
		t.Fatalf("bounded list kept a third object %p", got)
	}
	for i := len(objs) - 1; i >= 0; i-- {
		if got := unbounded.Take(); got != objs[i] {
			t.Fatalf("unbounded list returned %p, want %p", got, objs[i])
		}
	}
}
