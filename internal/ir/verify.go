package ir

import "fmt"

// Verify checks structural invariants of a function:
//
//   - every block ends in exactly one terminator, which is its last
//     instruction;
//   - CFG edges recorded in terminators match Preds/Succs, and every
//     predecessor has the edge;
//   - phi argument lists are parallel to their predecessor lists and cover
//     exactly the block's predecessors;
//   - instruction operand/destination arity matches the opcode;
//   - every instruction knows its enclosing block.
//
// It returns the first violation found, or nil.
func Verify(f *Func) error {
	if f.Entry == nil {
		return fmt.Errorf("%s: no entry block", f.Name)
	}
	for _, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			return fmt.Errorf("%s/%s: empty block", f.Name, b)
		}
		for i, in := range b.Instrs {
			if in.Block != b {
				return fmt.Errorf("%s/%s: instr %d has wrong Block link", f.Name, b, i)
			}
			isLast := i == len(b.Instrs)-1
			if in.IsTerminator() != isLast {
				return fmt.Errorf("%s/%s: terminator placement wrong at instr %d (%s)", f.Name, b, i, in)
			}
			if err := verifyArity(in); err != nil {
				return fmt.Errorf("%s/%s: %v", f.Name, b, err)
			}
			if in.Op == OpPhi {
				if len(in.Args) != len(in.Blocks()) {
					return fmt.Errorf("%s/%s: phi args/blocks mismatch", f.Name, b)
				}
				if len(in.Args) != len(b.Preds) {
					return fmt.Errorf("%s/%s: phi has %d args, block has %d preds", f.Name, b, len(in.Args), len(b.Preds))
				}
				for _, pb := range in.Blocks() {
					if !containsBlock(b.Preds, pb) {
						return fmt.Errorf("%s/%s: phi names non-pred %s", f.Name, b, pb)
					}
				}
			}
		}
		for _, p := range b.Preds {
			if !containsBlock(p.Succs, b) {
				return fmt.Errorf("%s/%s: predecessor %s has no edge to it", f.Name, b, p)
			}
		}
		term := b.Term()
		var want []*Block
		switch term.Op {
		case OpBr, OpJmp:
			want = term.Blocks()
		case OpRet:
			want = nil
		}
		if len(want) != len(b.Succs) {
			return fmt.Errorf("%s/%s: %d terminator targets, %d succs", f.Name, b, len(want), len(b.Succs))
		}
		for _, s := range want {
			if !containsBlock(b.Succs, s) {
				return fmt.Errorf("%s/%s: terminator target %s not in succs", f.Name, b, s)
			}
			if !containsBlock(s.Preds, b) {
				return fmt.Errorf("%s/%s: %s missing back edge in preds", f.Name, b, s)
			}
		}
	}
	return nil
}

func verifyArity(in *Instr) error {
	bad := func() error {
		return fmt.Errorf("bad arity for %s: %s", in.Op, in)
	}
	switch in.Op {
	case OpCopy, OpLoad, OpUn:
		if in.Dst == nil || len(in.Args) != 1 {
			return bad()
		}
	case OpBin:
		if in.Dst == nil || len(in.Args) != 2 || in.Sub == "" {
			return bad()
		}
	case OpStore:
		if len(in.Args) != 2 {
			return bad()
		}
	case OpAlloc, OpMalloc, OpGlobalAddr:
		if in.Dst == nil || len(in.Args) != 0 {
			return bad()
		}
	case OpFieldAddr:
		if in.Dst == nil || len(in.Args) != 1 || in.Sub == "" {
			return bad()
		}
	case OpFree:
		if len(in.Args) != 1 {
			return bad()
		}
	case OpCall:
		if in.Sub == "" {
			return bad()
		}
	case OpBr:
		if len(in.Args) != 1 || len(in.Blocks()) != 2 {
			return bad()
		}
	case OpJmp:
		if len(in.Blocks()) != 1 {
			return bad()
		}
	case OpRet:
		// any arity
	case OpPhi:
		if in.Dst == nil || len(in.Args) == 0 {
			return bad()
		}
	}
	return nil
}

func containsBlock(s []*Block, b *Block) bool {
	for _, x := range s {
		if x == b {
			return true
		}
	}
	return false
}

// VerifyModule runs Verify over every function.
func VerifyModule(m *Module) error {
	for _, f := range m.Funcs {
		if err := Verify(f); err != nil {
			return err
		}
	}
	return nil
}
