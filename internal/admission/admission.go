// Package admission statically validates untrusted kernel submissions
// before they reach a simulated SM.
//
// The simulator's execution engine trusts its input: malformed control
// flow can wedge a warp on a convergence barrier no other thread will
// ever arrive at (a structural deadlock), and a handful of shapes
// (indirect branches to computed targets, TRACE without an RT core,
// undefined special registers) panic outright. Admission closes that
// surface with a pure static pass — parse with the production
// assembler, bound every declared resource against hardware limits,
// and run a barrier-stack abstract interpretation over the program's
// basic blocks that proves every divergent construct is armed by a
// convergence barrier and that BSSY/BSYNC pairs nest properly. What
// admission cannot bound statically (run time, retired instructions,
// stored memory) is handed to the gas meter in internal/sm: a program
// that passes Validate and runs under an sm.Budget never panics the
// engine — it completes, is killed with a BudgetError, or is reported
// as a resource deadlock, all deterministically. FuzzAdmission pins
// exactly that contract.
package admission

import (
	"fmt"

	"subwarpsim/internal/isa"
)

// Reject reasons, used as the {reason=...} label of
// sisimd_admission_rejects_total. Keep this set closed and small:
// every reason is a metric series.
const (
	ReasonParse      = "parse"      // assembler rejected the source text
	ReasonLimits     = "limits"     // declared resources exceed hardware/policy limits
	ReasonOpcode     = "opcode"     // opcode not admissible for untrusted code (BRX, TRACE)
	ReasonOperand    = "operand"    // operand out of range (negative memory immediate)
	ReasonRegisters  = "registers"  // register use exceeds the declared .regs footprint
	ReasonScoreboard = "scoreboard" // scoreboard index exceeds the hardware file
	ReasonCFG        = "cfg"        // convergence-barrier structure is unsound
	ReasonFootprint  = "footprint"  // memory operand outside the declared footprint
)

// Reasons lists every reject reason, for metric pre-registration.
func Reasons() []string {
	return []string{ReasonParse, ReasonLimits, ReasonOpcode, ReasonOperand,
		ReasonRegisters, ReasonScoreboard, ReasonCFG, ReasonFootprint}
}

// Error is a structured admission reject: a machine-readable reason
// (one of the Reason constants), the offending PC where one exists
// (-1 otherwise), and a human-readable detail.
type Error struct {
	Reason string
	PC     int
	Detail string
}

func (e *Error) Error() string {
	if e.PC >= 0 {
		return fmt.Sprintf("admission: %s: pc %d: %s", e.Reason, e.PC, e.Detail)
	}
	return fmt.Sprintf("admission: %s: %s", e.Reason, e.Detail)
}

func reject(reason string, pc int, format string, args ...any) *Error {
	return &Error{Reason: reason, PC: pc, Detail: fmt.Sprintf(format, args...)}
}

// Limits bounds what an untrusted submission may declare. The zero
// value of any field means "hardware maximum" (see withDefaults);
// DefaultLimits matches the paper configuration.
type Limits struct {
	// MaxInstrs caps program length.
	MaxInstrs int
	// MaxRegsPerThread caps the declared .regs footprint.
	MaxRegsPerThread int
	// ScoreboardsPerWarp is the hardware scoreboard file size (NSB);
	// programs referencing sb indices at or above it are rejected here
	// rather than at SM construction.
	ScoreboardsPerWarp int
	// MemFootprintBytes is the submission's declared memory footprint:
	// memory-operand immediates must fall inside it. It is also the
	// natural MaxMemBytes gas budget for the run.
	MemFootprintBytes int64
}

// DefaultLimits returns the paper-configuration limits: 4K
// instructions, the full 64-register file, the Table I scoreboard file
// (8 per warp, config.Default().ScoreboardsPerWarp), and a 1 MiB
// declared footprint.
func DefaultLimits() Limits {
	return Limits{
		MaxInstrs:          4096,
		MaxRegsPerThread:   isa.NumRegs,
		ScoreboardsPerWarp: 8,
		MemFootprintBytes:  1 << 20,
	}
}

func (lim Limits) withDefaults() Limits {
	d := DefaultLimits()
	if lim.MaxInstrs <= 0 {
		lim.MaxInstrs = d.MaxInstrs
	}
	if lim.MaxRegsPerThread <= 0 || lim.MaxRegsPerThread > isa.NumRegs {
		lim.MaxRegsPerThread = isa.NumRegs
	}
	if lim.ScoreboardsPerWarp <= 0 {
		lim.ScoreboardsPerWarp = d.ScoreboardsPerWarp
	}
	if lim.MemFootprintBytes <= 0 {
		lim.MemFootprintBytes = d.MemFootprintBytes
	}
	return lim
}

// ValidateSource assembles src with the production assembler and then
// validates the result; it is the single entry point both the daemon's
// /v1/submit handler and sisim -submit go through, so local and
// server-side admission cannot drift. On success the returned program
// is safe to hand to sm.NewSM under a budget.
func ValidateSource(name, src string, lim Limits) (*isa.Program, error) {
	p, err := isa.Assemble(name, src)
	if err != nil {
		return nil, reject(ReasonParse, -1, "%v", err)
	}
	if err := Validate(p, lim); err != nil {
		return nil, err
	}
	return p, nil
}

// Validate statically checks an already-assembled program against lim.
// It returns nil, or an *Error naming the first violation.
//
// Checks, in order:
//   - program length and declared registers against Limits
//   - structural validity via isa.Program.Validate (defensive: the
//     assembler and builder already guarantee this for their outputs)
//   - admissible opcodes: BRX (runtime-computed targets cannot be
//     bounded statically and out-of-range targets panic the engine)
//     and TRACE (submissions carry no BVH/ray generator) are rejected
//   - the operand range the structural validator does not cover:
//     non-negative memory immediates
//   - the general registers an instruction names (its GPR operands in
//     the opcode table; unused fields do not count) stay under the
//     declared .regs footprint (occupancy honesty: the declared
//     footprint is what the SM charges against its register file)
//   - scoreboard indices under the hardware file size
//   - memory-operand immediates inside the declared footprint
//   - the convergence-barrier CFG pass (see cfg.go)
func Validate(p *isa.Program, lim Limits) error {
	lim = lim.withDefaults()
	if len(p.Code) == 0 {
		return reject(ReasonParse, -1, "program %q has no instructions", p.Name)
	}
	if len(p.Code) > lim.MaxInstrs {
		return reject(ReasonLimits, -1, "program %q has %d instructions, limit %d",
			p.Name, len(p.Code), lim.MaxInstrs)
	}
	if p.RegsPerThread < 1 || p.RegsPerThread > lim.MaxRegsPerThread {
		return reject(ReasonLimits, -1, ".regs %d outside [1, %d]",
			p.RegsPerThread, lim.MaxRegsPerThread)
	}
	if err := p.Validate(); err != nil {
		return reject(ReasonParse, -1, "%v", err)
	}
	if maxSB := p.MaxScoreboard(); maxSB >= lim.ScoreboardsPerWarp {
		return reject(ReasonScoreboard, -1, "program uses sb%d but hardware has %d scoreboards/warp",
			maxSB, lim.ScoreboardsPerWarp)
	}
	var regs []uint8
	for pc, in := range p.Code {
		switch in.Op {
		case isa.BRX:
			return reject(ReasonOpcode, pc,
				"BRX targets are runtime register values and cannot be admitted statically")
		case isa.TRACE:
			return reject(ReasonOpcode, pc,
				"TRACE requires an RT core; submissions have no BVH/ray generator")
		case isa.LDG, isa.STG, isa.TLD, isa.TEX:
			if in.Imm < 0 {
				return reject(ReasonOperand, pc,
					"memory immediate %d is negative (zero-extends to a huge address)", in.Imm)
			}
			if int64(in.Imm) >= lim.MemFootprintBytes {
				return reject(ReasonFootprint, pc,
					"memory immediate %d outside declared footprint of %d bytes",
					in.Imm, lim.MemFootprintBytes)
			}
		}
		regs = in.AppendGPRs(regs[:0])
		for _, r := range regs {
			if int(r) >= p.RegsPerThread {
				return reject(ReasonRegisters, pc, "R%d exceeds declared .regs %d", r, p.RegsPerThread)
			}
		}
	}
	return checkCFG(p)
}
