package ir

import "fmt"

// Verify checks the invariants of a function that its tables do not hold by
// construction:
//
//   - every block ends in exactly one terminator, which is its last
//     instruction;
//   - a branch has two successors, a jump one, a return none;
//   - a φ has one operand per predecessor of its block;
//   - instruction operand/destination arity matches the opcode.
//
// It returns the first violation found, or nil.
func Verify(f *Func) error {
	if f.Entry < 0 {
		return fmt.Errorf("%s: no entry block", f.Name)
	}
	for _, blk := range f.Blocks() {
		fail := func(format string, args ...any) error {
			return fmt.Errorf("%s/%s: "+format, append([]any{f.Name, BlockName(blk)}, args...)...)
		}
		ins := f.Instrs(blk)
		if len(ins) == 0 {
			return fail("empty block")
		}
		for i, in := range ins {
			r := f.In(in)
			if isLast := i == len(ins)-1; r.Op.IsTerminator() != isLast {
				return fail("terminator placement wrong at instr %d (%s)", i, r.Op)
			}
			if err := f.verifyArity(in); err != nil {
				return fail("%v", err)
			}
			if r.Op == OpPhi && len(f.Args(in)) != len(f.Preds(blk)) {
				return fail("phi has %d args, block has %d preds", len(f.Args(in)), len(f.Preds(blk)))
			}
		}
		want := 0 // a return's
		switch f.In(ins[len(ins)-1]).Op {
		case OpBr:
			want = 2
		case OpJmp:
			want = 1
		}
		if want != len(f.Succs(blk)) {
			return fail("%d terminator targets, %d succs", want, len(f.Succs(blk)))
		}
	}
	return nil
}

func (f *Func) verifyArity(in int32) error {
	r := f.In(in)
	ar := arity[r.Op]
	switch {
	case ar.Args >= 0 && len(f.Args(in)) != ar.Args, ar.Dst && r.Dst < 0,
		(r.Op == OpBin || r.Op == OpFieldAddr || r.Op == OpCall) && f.Sub(in) == "",
		r.Op == OpPhi && len(f.Args(in)) == 0, r.Op == OpJmp && len(f.Args(in)) != 0:
		return fmt.Errorf("bad arity for %s (instr %d)", r.Op, in)
	}
	return nil
}

// VerifyModule runs Verify over every function.
func VerifyModule(m *Module) error {
	for pos := range m.NumFuncs() {
		if err := Verify(m.Func(pos)); err != nil {
			return err
		}
	}
	return nil
}
