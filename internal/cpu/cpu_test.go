package cpu

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// run assembles src, loads it at 0, and executes until halt. Programs must
// end with "swi #0".
func run(t *testing.T, src string, setup func(*Machine)) *Machine {
	t.Helper()
	words, _, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := NewMachine(1 << 16)
	if err := m.LoadWords(0, words); err != nil {
		t.Fatal(err)
	}
	m.SetSWIHandler(func(num uint32, r0, _, _, _ uint32) (uint32, int64, bool) {
		return r0, 0, num == 0
	})
	if setup != nil {
		setup(m)
	}
	if _, err := m.Run(1_000_000); err != nil {
		t.Fatalf("run: %v (pc=%#x)", err, m.R[RegPC])
	}
	return m
}

func TestMovAddSub(t *testing.T) {
	m := run(t, `
        mov r0, #10
        add r1, r0, #5
        sub r2, r1, #3
        rsb r3, r0, #100
        swi #0
    `, nil)
	if m.R[0] != 10 || m.R[1] != 15 || m.R[2] != 12 || m.R[3] != 90 {
		t.Fatalf("regs %v", m.R[:4])
	}
}

func TestImmediateRotation(t *testing.T) {
	// 0x3F000 = 0xFC ror 26 -- requires rotate encoding.
	m := run(t, `
        mov r0, #0x3F000
        mov r1, #0xFF000000
        swi #0
    `, nil)
	if m.R[0] != 0x3F000 || m.R[1] != 0xFF000000 {
		t.Fatalf("rotated immediates: %#x %#x", m.R[0], m.R[1])
	}
	// Unencodable immediate must fail at assembly.
	if _, _, err := Assemble("mov r0, #0x101\nswi #0"); err == nil {
		t.Fatal("unencodable immediate accepted")
	}
}

func TestLogicAndShifts(t *testing.T) {
	m := run(t, `
        mov r0, #0xF0
        mov r1, #0x0F
        orr r2, r0, r1
        and r3, r2, #0x3C
        eor r4, r0, r1
        bic r5, r0, #0x30
        mvn r6, #0
        mov r7, r0, lsl #4
        mov r8, r0, lsr #4
        swi #0
    `, nil)
	checks := []struct {
		reg  int
		want uint32
	}{
		{2, 0xFF}, {3, 0x3C}, {4, 0xFF}, {5, 0xC0}, {6, 0xFFFFFFFF}, {7, 0xF00}, {8, 0x0F},
	}
	for _, c := range checks {
		if m.R[c.reg] != c.want {
			t.Errorf("r%d = %#x want %#x", c.reg, m.R[c.reg], c.want)
		}
	}
}

func TestASRAndRegisterShift(t *testing.T) {
	m := run(t, `
        mvn r0, #0          ; r0 = 0xFFFFFFFF
        mov r1, r0, asr #8  ; sign extend: still all ones
        mov r2, #0x80000000
        mov r3, r2, asr #31
        mov r4, r2, ror #4
        swi #0
    `, nil)
	if m.R[1] != 0xFFFFFFFF {
		t.Fatalf("asr of -1: %#x", m.R[1])
	}
	if m.R[3] != 0xFFFFFFFF {
		t.Fatalf("asr #31 of min-int: %#x", m.R[3])
	}
	if m.R[4] != 0x08000000 {
		t.Fatalf("ror: %#x", m.R[4])
	}
}

func TestCompareAndBranches(t *testing.T) {
	m := run(t, `
        mov r0, #5
        mov r1, #0
    loop:
        add r1, r1, r0
        sub r0, r0, #1
        cmp r0, #0
        bne loop
        swi #0
    `, nil)
	if m.R[1] != 15 { // 5+4+3+2+1
		t.Fatalf("sum = %d", m.R[1])
	}
}

func TestSignedConditions(t *testing.T) {
	m := run(t, `
        mvn r0, #0          ; r0 = -1
        cmp r0, #1
        movlt r1, #1        ; signed: -1 < 1
        movge r2, #1        ; must not execute
        cmp r0, #1          ; unsigned: 0xFFFFFFFF > 1
        movhi r3, #1
        swi #0
    `, nil)
	if m.R[1] != 1 || m.R[2] != 0 || m.R[3] != 1 {
		t.Fatalf("cond regs %v", m.R[1:4])
	}
}

func TestOverflowFlag(t *testing.T) {
	m := run(t, `
        mov r0, #0x7F000000
        adds r1, r0, r0     ; overflows into the sign bit
        movvs r2, #1
        swi #0
    `, nil)
	if m.R[2] != 1 {
		t.Fatalf("V flag not set on signed overflow")
	}
}

func TestLoadStore(t *testing.T) {
	m := run(t, `
        mov r0, #0x1000
        mov r1, #42
        str r1, [r0]
        ldr r2, [r0]
        str r1, [r0, #4]
        ldr r3, [r0, #4]
        mov r4, #0xAB
        strb r4, [r0, #8]
        ldrb r5, [r0, #8]
        swi #0
    `, nil)
	if m.R[2] != 42 || m.R[3] != 42 || m.R[5] != 0xAB {
		t.Fatalf("mem ops: %v", m.R[2:6])
	}
	if w := m.word(0x1000); w != 42 {
		t.Fatalf("mem content %d", w)
	}
}

func TestPostIndexAndWriteback(t *testing.T) {
	m := run(t, `
        mov r0, #0x2000
        mov r1, #7
        str r1, [r0], #4    ; post-index: store at 0x2000, r0 = 0x2004
        str r1, [r0, #4]!   ; pre-index writeback: store at 0x2008, r0 = 0x2008
        swi #0
    `, nil)
	if m.R[0] != 0x2008 {
		t.Fatalf("writeback r0 = %#x", m.R[0])
	}
	w1, w2 := m.word(0x2000), m.word(0x2008)
	if w1 != 7 || w2 != 7 {
		t.Fatalf("stores landed at %d %d", w1, w2)
	}
}

func TestRegisterOffset(t *testing.T) {
	m := run(t, `
        mov r0, #0x3000
        mov r1, #8
        mov r2, #99
        str r2, [r0, r1]
        ldr r3, [r0, r1]
        swi #0
    `, nil)
	if m.R[3] != 99 {
		t.Fatalf("register offset load: %d", m.R[3])
	}
}

func TestPushPopAndCalls(t *testing.T) {
	m := run(t, `
        mov sp, #0x8000
        mov r0, #3
        bl double
        bl double
        swi #0
    double:
        push {r4, lr}
        mov r4, r0
        add r0, r4, r4
        pop {r4, pc}
    `, nil)
	if m.R[0] != 12 {
		t.Fatalf("nested calls result %d", m.R[0])
	}
	if m.R[RegSP] != 0x8000 {
		t.Fatalf("stack unbalanced: sp=%#x", m.R[RegSP])
	}
}

func TestMultiply(t *testing.T) {
	m := run(t, `
        mov r0, #7
        mov r1, #6
        mul r2, r0, r1
        mov r3, #100
        mla r4, r0, r1, r3
        swi #0
    `, nil)
	if m.R[2] != 42 || m.R[4] != 142 {
		t.Fatalf("mul/mla: %d %d", m.R[2], m.R[4])
	}
}

func TestBXReturn(t *testing.T) {
	m := run(t, `
        mov r0, #1
        bl f
        add r0, r0, #10
        swi #0
    f:
        add r0, r0, #100
        bx lr
    `, nil)
	if m.R[0] != 111 {
		t.Fatalf("bx return: %d", m.R[0])
	}
}

func TestSWIServices(t *testing.T) {
	words, _, err := Assemble(`
        mov r0, #5
        mov r1, #7
        swi #2      ; service: r0 = r0 + r1 (host-provided)
        swi #0
    `)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(1 << 12)
	m.LoadWords(0, words)
	extraCharged := int64(0)
	m.SetSWIHandler(func(num uint32, r0, r1, _, _ uint32) (uint32, int64, bool) {
		if num == 2 {
			extraCharged = 50
			return r0 + r1, 50, false
		}
		return r0, 0, num == 0
	})
	if _, err := m.Run(10000); err != nil {
		t.Fatal(err)
	}
	if m.R[0] != 12 {
		t.Fatalf("swi service result %d", m.R[0])
	}
	if extraCharged != 50 {
		t.Fatalf("service not invoked")
	}
}

func TestCycleCounting(t *testing.T) {
	m := run(t, `
        mov r0, #1      ; 1
        add r0, r0, #1  ; 1
        swi #0          ; 3
    `, nil)
	if m.Cycles != 5 {
		t.Fatalf("cycles %d, want 5", m.Cycles)
	}
	if m.Steps != 3 {
		t.Fatalf("steps %d", m.Steps)
	}
}

func TestLoadCostsMoreThanALU(t *testing.T) {
	m1 := run(t, "mov r0, #0\nswi #0", nil)
	m2 := run(t, "mov r1, #0x100\nldr r0, [r1]\nswi #0", nil)
	aluC := m1.Cycles - 3 // minus swi
	ldrC := m2.Cycles - 3 - 1
	if ldrC <= aluC {
		t.Fatalf("LDR (%d) must cost more than MOV (%d)", ldrC, aluC)
	}
}

func TestMemFault(t *testing.T) {
	words, _, _ := Assemble(`
        mov r0, #0x10000000
        ldr r1, [r0]
        swi #0
    `)
	m := NewMachine(1 << 12)
	m.LoadWords(0, words)
	m.SetSWIHandler(func(uint32, uint32, uint32, uint32, uint32) (uint32, int64, bool) { return 0, 0, true })
	if _, err := m.Run(1000); err == nil {
		t.Fatal("out-of-SRAM access not faulted")
	}
}

func TestCycleLimit(t *testing.T) {
	words, _, _ := Assemble("spin: b spin")
	m := NewMachine(1 << 12)
	m.LoadWords(0, words)
	if _, err := m.Run(100); err != ErrCycleLimit {
		t.Fatalf("runaway loop: %v", err)
	}
}

func TestAssemblerErrors(t *testing.T) {
	bad := []string{
		"frobnicate r0",
		"mov r99, #1",
		"ldr r0",
		"b nowhere",
		"push {}",
		"mov r0, #99999999", // unencodable
		"dup: mov r0, #1\ndup: mov r0, #2",
	}
	for _, src := range bad {
		if _, _, err := Assemble(src); err == nil {
			t.Errorf("source %q assembled", src)
		}
	}
}

func TestRegListRange(t *testing.T) {
	m := run(t, `
        mov sp, #0x8000
        mov r4, #4
        mov r5, #5
        mov r6, #6
        push {r4-r6}
        mov r4, #0
        mov r5, #0
        mov r6, #0
        pop {r4-r6}
        swi #0
    `, nil)
	if m.R[4] != 4 || m.R[5] != 5 || m.R[6] != 6 {
		t.Fatalf("range push/pop: %v", m.R[4:7])
	}
}

func TestWordDirective(t *testing.T) {
	words, labels, err := Assemble(`
        b start
    data:
        .word 0xDEADBEEF
    start:
        ldr r0, [pc, #-16]   ; data is at pc+8-16
        swi #0
    `)
	if err != nil {
		t.Fatal(err)
	}
	if words[1] != 0xDEADBEEF {
		t.Fatalf(".word content %#x", words[1])
	}
	if labels["data"] != 4 || labels["start"] != 8 {
		t.Fatalf("labels %v", labels)
	}
}

// Property: assembling and running a computed arithmetic chain matches Go's
// semantics for add/sub/eor/orr/and on arbitrary 8-bit inputs.
func TestArithmeticProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		m := run(t, `
            ldr r0, [r7]
            ldr r1, [r7, #4]
            add r2, r0, r1
            sub r3, r0, r1
            eor r4, r0, r1
            orr r5, r0, r1
            and r6, r0, r1
            swi #0
        `, func(m *Machine) {
			m.R[7] = 0x1000
			m.putWord(0x1000, uint32(a))
			m.putWord(0x1004, uint32(b))
		})
		ua, ub := uint32(a), uint32(b)
		return m.R[2] == ua+ub && m.R[3] == ua-ub && m.R[4] == ua^ub &&
			m.R[5] == ua|ub && m.R[6] == ua&ub
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// --- firmware models ---

func TestFirmwareCosts(t *testing.T) {
	c := DefaultFirmwareCosts()
	seq := c.CommandCycles(false, 1)
	rnd := c.CommandCycles(true, 1)
	if rnd <= seq {
		t.Fatalf("random command must cost more: %d vs %d", rnd, seq)
	}
	if c.CommandCycles(false, 4) <= c.CommandCycles(false, 1) {
		t.Fatalf("multi-page command must cost more")
	}
	// Calibration targets: ~8 us sequential, ~27 us random at 200 MHz.
	seqUS := float64(seq) / 200
	rndUS := float64(rnd) / 200
	if seqUS < 4 || seqUS > 16 {
		t.Fatalf("sequential firmware cost %v us", seqUS)
	}
	if rndUS < 20 || rndUS > 40 {
		t.Fatalf("random firmware cost %v us", rndUS)
	}
}

func TestComplexSerializesOnOneCore(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig()
	cx, err := NewComplex(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var doneAt []sim.Time
	for i := 0; i < 3; i++ {
		cx.Exec(200, func() { doneAt = append(doneAt, k.Now()) }) // 1 us each
	}
	k.RunAll()
	if len(doneAt) != 3 {
		t.Fatalf("tasks completed %d", len(doneAt))
	}
	if doneAt[2] != 3*sim.Microsecond {
		t.Fatalf("serialized completion at %v, want 3us", doneAt[2])
	}
}

func TestComplexMultiCoreParallelism(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig()
	cfg.Cores = 2
	cx, _ := NewComplex(k, cfg)
	var last sim.Time
	for i := 0; i < 4; i++ {
		cx.Exec(200, func() { last = k.Now() })
	}
	k.RunAll()
	if last != 2*sim.Microsecond {
		t.Fatalf("dual-core finished at %v, want 2us", last)
	}
}

func TestFirmwareFTLResolve(t *testing.T) {
	f, err := NewFirmwareFTL(256, 4, 1024)
	if err != nil {
		t.Fatal(err)
	}
	// Unmapped read returns the invalid marker.
	ppn, cyc, err := f.Resolve(10, false)
	if err != nil {
		t.Fatal(err)
	}
	if ppn != InvalidPPN {
		t.Fatalf("unmapped read ppn %#x", ppn)
	}
	if cyc <= 0 {
		t.Fatalf("no cycles charged")
	}
	// Write allocates; read returns the same ppn.
	wp, wc, err := f.Resolve(10, true)
	if err != nil {
		t.Fatal(err)
	}
	rp, _, err := f.Resolve(10, false)
	if err != nil {
		t.Fatal(err)
	}
	if wp != rp {
		t.Fatalf("write ppn %d, read ppn %d", wp, rp)
	}
	if wc <= cyc {
		t.Fatalf("write path (%d cyc) should cost more than read path (%d cyc)", wc, cyc)
	}
}

func TestFirmwareFTLStriping(t *testing.T) {
	f, err := NewFirmwareFTL(64, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	units := map[uint32]bool{}
	for lpn := int64(0); lpn < 4; lpn++ {
		ppn, _, err := f.Resolve(lpn, true)
		if err != nil {
			t.Fatal(err)
		}
		units[ppn/100] = true
	}
	if len(units) != 4 {
		t.Fatalf("firmware striping hit %d units", len(units))
	}
}

func TestFirmwareFTLOverwrite(t *testing.T) {
	f, _ := NewFirmwareFTL(64, 2, 100)
	p1, _, _ := f.Resolve(5, true)
	p2, _, _ := f.Resolve(5, true)
	if p1 == p2 {
		t.Fatalf("overwrite reused the physical page")
	}
	rp, _, _ := f.Resolve(5, false)
	if rp != p2 {
		t.Fatalf("read returned stale mapping")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.Cores = 0
	if bad.Validate() == nil {
		t.Fatal("zero cores accepted")
	}
	k := sim.NewKernel()
	if _, err := NewComplex(k, bad); err == nil {
		t.Fatal("bad config accepted by NewComplex")
	}
	if _, err := NewFirmwareFTL(0, 1, 1); err == nil {
		t.Fatal("empty firmware FTL accepted")
	}
}

func TestAllConditionCodes(t *testing.T) {
	// Each conditional mov fires exactly when its predicate holds.
	m := run(t, `
        mov r0, #5
        cmp r0, #5
        moveq r1, #1
        movne r2, #1
        cmp r0, #9
        movlt r3, #1
        movgt r4, #1
        movle r5, #1
        movge r6, #1
        cmp r0, #1
        movhi r7, #1       ; unsigned >
        movls r8, #1
        swi #0
    `, nil)
	want := map[int]uint32{1: 1, 2: 0, 3: 1, 4: 0, 5: 1, 6: 0, 7: 1, 8: 0}
	for reg, v := range want {
		if m.R[reg] != v {
			t.Errorf("r%d = %d want %d", reg, m.R[reg], v)
		}
	}
}

func TestCarryConditions(t *testing.T) {
	m := run(t, `
        mvn r0, #0          ; 0xFFFFFFFF
        adds r1, r0, r0     ; carry out
        movcs r2, #1
        mov r3, #0
        adds r4, r3, r3     ; no carry
        movcc r5, #1
        swi #0
    `, nil)
	if m.R[2] != 1 || m.R[5] != 1 {
		t.Fatalf("carry conditions: r2=%d r5=%d", m.R[2], m.R[5])
	}
}

func TestFirmwareSourceAssembles(t *testing.T) {
	words, labels, err := Assemble(FTLFirmwareSource)
	if err != nil {
		t.Fatalf("shipped firmware does not assemble: %v", err)
	}
	if len(words) < 15 {
		t.Fatalf("firmware suspiciously short: %d words", len(words))
	}
	for _, l := range []string{"start", "do_write", "finish"} {
		if _, ok := labels[l]; !ok {
			t.Fatalf("label %q missing", l)
		}
	}
}
