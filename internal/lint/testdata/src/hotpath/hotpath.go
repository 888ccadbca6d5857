// Package hotpath exercises the hotpath analyzer: //ssdx:hotpath functions
// must not contain allocating constructs; everything is legal in unannotated
// functions.
package hotpath

import "fmt"

type pool struct {
	free  []*item
	sinks []func()
}

type item struct{ n int }

type anyConsumer interface{ consume(v any) }

// Fmt calls allocate.
//
//ssdx:hotpath
func formats(n int) {
	fmt.Println(n)        // want `hot path: fmt\.Println allocates`
	_ = fmt.Sprintf("%d", // want `hot path: fmt\.Sprintf allocates`
		n)
}

// Map and slice composite literals and make allocate; struct literals are
// legal (the pool-refill pattern allocates by design, amortized to zero).
//
//ssdx:hotpath
func literals(p *pool) *item {
	_ = map[int]int{}  // want `hot path: map composite literal allocates`
	_ = []int{1, 2}    // want `hot path: slice composite literal allocates`
	_ = make([]int, 4) // want `hot path: make allocates`
	if len(p.free) == 0 {
		return &item{} // struct literal: legal
	}
	it := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return it
}

// Closures capturing enclosing locals are heap-allocated per construction;
// capture-free function literals pass.
//
//ssdx:hotpath
func closures(p *pool, n int) {
	p.sinks = append(p.sinks, func() { _ = n }) // want `hot path: closure captures n \(allocates\); pre-bind the callback`
	p.sinks = append(p.sinks, func() {})
}

// Non-constant string concatenation and string/[]byte conversions copy.
//
//ssdx:hotpath
func strings2(a, b string, raw []byte) string {
	_ = "lit" + "eral" // constant folding: legal
	_ = string(raw)    // want `hot path: string/\[\]byte conversion allocates`
	return a + b       // want `hot path: string concatenation allocates`
}

// Boxing a concrete non-pointer value into an interface allocates; pointers,
// constants and nil ride in the interface word for free.
//
//ssdx:hotpath
func boxing(c anyConsumer, it *item, n int) any {
	c.consume(n)   // want `hot path: interface argument boxes a int value \(allocates\)`
	c.consume(42)  // constant: legal
	c.consume(it)  // pointer-shaped: legal
	c.consume(nil) // legal
	var sink any
	sink = n // want `hot path: assignment to interface boxes a int value \(allocates\)`
	_ = sink
	if n < 0 {
		panic(n) // want `hot path: panic argument boxes a int value \(allocates\)`
	}
	if n > 1000 {
		panic("overflow") // constant: legal
	}
	return n // want `hot path: interface return boxes a int value \(allocates\)`
}

// Unannotated functions may do all of the above.
func relaxed(p *pool, n int) any {
	fmt.Println(n)
	_ = map[int]int{}
	_ = make([]int, 4)
	p.sinks = append(p.sinks, func() { _ = n })
	return n
}

type record struct {
	n      int
	stepFn func()
}

func (r *record) step() { r.n++ }

type stepper interface{ step() }

// A method value is a closure over its receiver: handing one on allocates,
// calling the method does not. Bind it once in the record's constructor.
//
//ssdx:hotpath
func methodValues(p *pool, r *record, s stepper) {
	p.sinks = append(p.sinks, r.step)   // want `hot path: method value step allocates a closure; bind it once where the record is built`
	p.sinks = append(p.sinks, (r.step)) // want `hot path: method value step allocates a closure; bind it once where the record is built`
	p.sinks = append(p.sinks, s.step)   // want `hot path: method value step allocates a closure; bind it once where the record is built`
	r.step()                            // call: legal
	(r.step)()                          // call: legal
	s.step()                            // interface call: legal
	p.sinks = append(p.sinks, r.stepFn) // pre-bound field: legal
	_ = (*record).step                  // method expression: a static function, legal
}

// newRecord binds the record's callback once; unannotated, so legal.
func newRecord() *record {
	r := &record{}
	r.stepFn = r.step
	return r
}
