package cpu

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// FirmwareCosts is the parametric firmware model: cycle costs charged to the
// core for each step of host-command processing. These costs are the
// control-path serialisation the paper's RTL-accurate CPU modeling exists to
// capture — on random traffic the single ARM7 core is the throughput wall.
type FirmwareCosts struct {
	Dispatch   int64 // command fetch/parse, queue bookkeeping
	MapSeq     int64 // L2P resolution on a sequential run (cached stride)
	MapRand    int64 // L2P resolution on a random access (table walk)
	PerPage    int64 // channel-controller register/DMA descriptor setup
	Completion int64 // completion notification bookkeeping
}

// DefaultFirmwareCosts is calibrated for a Barefoot-class controller: a
// sequential 4 KB command costs ~8 us of core time, a random one ~27 us.
func DefaultFirmwareCosts() FirmwareCosts {
	return FirmwareCosts{
		Dispatch:   600,
		MapSeq:     300,
		MapRand:    4500,
		PerPage:    300,
		Completion: 400,
	}
}

// CommandCycles returns the firmware cycles to process one host command
// spanning `pages` flash pages.
func (f FirmwareCosts) CommandCycles(random bool, pages int) int64 {
	m := f.MapSeq
	if random {
		m = f.MapRand
	}
	if pages < 1 {
		pages = 1
	}
	return f.Dispatch + m + int64(pages)*f.PerPage + f.Completion
}

// Config describes the CPU complex.
type Config struct {
	ClockMHz  float64 // paper: 200 MHz ARM7TDMI
	Cores     int     // paper default 1; "Multi Core" is a Table I feature
	SRAMBytes int     // paper: 16 MB
	Costs     FirmwareCosts
}

// DefaultConfig returns the paper's CPU subsystem.
func DefaultConfig() Config {
	return Config{ClockMHz: 200, Cores: 1, SRAMBytes: 16 << 20, Costs: DefaultFirmwareCosts()}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.ClockMHz <= 0 || c.Cores < 1 || c.SRAMBytes < 1024 {
		return fmt.Errorf("cpu: invalid config %+v", c)
	}
	return nil
}

// Complex is the firmware execution resource: one server per core, work
// dispatched round-robin. Firmware tasks serialise on their core, which is
// how per-command CPU cost becomes an IOPS ceiling.
type Complex struct {
	cfg   Config
	clk   *sim.Clock
	cores []*sim.Server
	next  int

	TasksRun    uint64
	CyclesSpent int64
}

// NewComplex builds the CPU complex.
func NewComplex(k *sim.Kernel, cfg Config) (*Complex, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Complex{cfg: cfg, clk: sim.NewClock("cpu", cfg.ClockMHz)}
	for i := 0; i < cfg.Cores; i++ {
		c.cores = append(c.cores, sim.NewServer(k, c.clk, fmt.Sprintf("core%d", i)))
	}
	return c, nil
}

// Config returns the complex configuration.
func (c *Complex) Config() Config { return c.cfg }

// Clock returns the core clock.
func (c *Complex) Clock() *sim.Clock { return c.clk }

// Cores exposes the per-core servers (read-only use: tracing hooks and
// diagnostics attach here).
func (c *Complex) Cores() []*sim.Server { return c.cores }

// NextCore reports the core the next Exec runs its task on.
//
//ssdx:hotpath
func (c *Complex) NextCore() int { return c.next }

// Exec schedules a firmware task of the given cycle cost on the next core
// (round-robin); done fires when the task completes. Each core ends its
// tasks in Exec order.
//
//ssdx:hotpath
func (c *Complex) Exec(cycles int64, done func()) {
	if cycles < 0 {
		cycles = 0
	}
	i := c.next
	c.next = (c.next + 1) % len(c.cores)
	c.TasksRun++
	c.CyclesSpent += cycles
	c.cores[i].Acquire(c.clk.Cycles(cycles), done)
}

// Utilization averages core busy fractions.
func (c *Complex) Utilization(now sim.Time) float64 {
	if now <= 0 {
		return 0
	}
	var u float64
	for _, core := range c.cores {
		u += core.Utilization(now)
	}
	return u / float64(len(c.cores))
}

// --- Real-firmware execution mode -----------------------------------------

// FTLFirmwareSource is a real firmware routine, in the supported assembly
// dialect, that performs the L2P lookup of a page-mapped FTL on the
// simulated core: it walks a flat mapping table in SRAM, allocates a new
// physical page on writes (bump allocator per unit with round-robin
// striping), and returns the physical page in r0. Hypercalls:
//
//	swi #0 : halt (routine done; r0 holds result)
//
// Memory map (word addresses, set up by the host):
//
//	0x100: lpn            (in)
//	0x104: opcode         (in; 0 = read, 1 = write)
//	0x108: table base     (in)
//	0x10C: unit count     (in)
//	0x110: next-unit      (state)
//	0x114: alloc base     (per-unit next free page array base)
//	0x118: result ppn     (out; also r0)
const FTLFirmwareSource = `
; r0=lpn r1=op r2=table base r3=scratch
start:
    ldr   r0, [r7, #0]       ; lpn         (r7 = mailbox base)
    ldr   r1, [r7, #4]       ; opcode
    ldr   r2, [r7, #8]       ; table base
    cmp   r1, #1
    beq   do_write
; read: ppn = table[lpn]
    add   r3, r2, r0, lsl #2
    ldr   r0, [r3]
    b     finish
do_write:
; pick unit = next_unit; next_unit = (next_unit + 1) % units
    ldr   r4, [r7, #16]      ; next-unit
    ldr   r5, [r7, #12]      ; unit count
    add   r6, r4, #1
    cmp   r6, r5
    movge r6, #0
    str   r6, [r7, #16]
; ppn = alloc[unit]; alloc[unit] += 1
    ldr   r5, [r7, #20]      ; alloc base
    add   r5, r5, r4, lsl #2
    ldr   r6, [r5]
    add   r8, r6, #1
    str   r8, [r5]
; table[lpn] = ppn
    add   r3, r2, r0, lsl #2
    str   r6, [r3]
    mov   r0, r6
finish:
    str   r0, [r7, #24]      ; result
    swi   #0
`

// FirmwareFTL runs the real firmware routine above on a Machine to resolve
// logical pages, charging actual executed cycles. It demonstrates the
// paper's "full SSD firmware can be implemented and interchanged in a plug &
// play way" claim: the platform can swap the parametric cost model for real
// firmware execution.
type FirmwareFTL struct {
	m            *Machine
	entry        uint32
	mailbox      uint32
	tableBase    uint32
	allocBase    uint32
	units        uint32
	pagesPerUnit uint32
}

// NewFirmwareFTL assembles and loads the firmware, laying out the mapping
// table for `logicalPages` pages over `units` allocation units.
func NewFirmwareFTL(logicalPages int64, units, pagesPerUnit int) (*FirmwareFTL, error) {
	if logicalPages < 1 || units < 1 || pagesPerUnit < 1 {
		return nil, errors.New("cpu: bad firmware FTL geometry")
	}
	words, _, err := Assemble(FTLFirmwareSource)
	if err != nil {
		return nil, fmt.Errorf("cpu: firmware assembly failed: %v", err)
	}
	const entry = 0x0
	const mailbox = 0x100
	tableBase := uint32(0x200)
	tableBytes := uint32(logicalPages) * 4
	allocBase := tableBase + tableBytes
	need := int(allocBase) + units*4 + 1024
	m := NewMachine(need)
	if err := m.LoadWords(entry, words); err != nil {
		return nil, err
	}
	f := &FirmwareFTL{
		m: m, entry: entry, mailbox: mailbox,
		tableBase: tableBase, allocBase: allocBase,
		units: uint32(units), pagesPerUnit: uint32(pagesPerUnit),
	}
	// Initialise table to the invalid marker and allocators to unit bases.
	for i := int64(0); i < logicalPages; i++ {
		m.putWord(tableBase+uint32(4*i), InvalidPPN)
	}
	for u := 0; u < units; u++ {
		m.putWord(allocBase+uint32(4*u), uint32(u*pagesPerUnit))
	}
	m.SetSWIHandler(func(num uint32, r0, _, _, _ uint32) (uint32, int64, bool) {
		return r0, 0, num == 0
	})
	return f, nil
}

// InvalidPPN is the firmware's unmapped marker.
const InvalidPPN = 0xFFFFFFFF

// Resolve executes the firmware routine for one command, returning the
// physical page and the actual cycles the core spent.
func (f *FirmwareFTL) Resolve(lpn int64, write bool) (ppn uint32, cycles int64, err error) {
	op := uint32(0)
	if write {
		op = 1
	}
	f.m.putWord(f.mailbox+0, uint32(lpn))
	f.m.putWord(f.mailbox+4, op)
	f.m.putWord(f.mailbox+8, f.tableBase)
	f.m.putWord(f.mailbox+12, f.units)
	f.m.putWord(f.mailbox+20, f.allocBase)
	f.m.R[RegPC] = f.entry
	f.m.R[7] = f.mailbox
	used, err := f.m.Run(100000)
	if err != nil {
		return 0, used, err
	}
	return f.m.R[0], used, nil
}

// Machine exposes the underlying core (for inspection in tests).
func (f *FirmwareFTL) Machine() *Machine { return f.m }
