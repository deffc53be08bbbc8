package cond

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/wirebin"
)

// wireNode is one node of a builder's encoding as these tests write it by
// hand: the kind byte, then the atom of a KAtom or the operand IDs of the
// others (one for a KNot, a counted list for a KAnd/KOr).
type wireNode struct {
	kind uint8
	atom int
	ops  []int
}

func encodeNodes(ns []wireNode) []byte {
	var e wirebin.Writer
	e.Uvarint(uint64(len(ns)))
	for _, n := range ns {
		e.U8(n.kind)
		switch Kind(n.kind) {
		case KAtom:
			e.Int(n.atom)
		case KNot:
			e.Int(n.ops[0])
		case KAnd, KOr:
			e.Uvarint(uint64(len(n.ops)))
			for _, op := range n.ops {
				e.Int(op)
			}
		}
	}
	return e.B
}

// codecNodes is the node set of codecBuilder, in ID order.
func codecNodes() []wireNode {
	return []wireNode{
		{kind: uint8(KTrue)},
		{kind: uint8(KFalse)},
		{kind: uint8(KAtom), atom: 7},
		{kind: uint8(KAtom), atom: 3},
		{kind: uint8(KNot), ops: []int{3}},
		{kind: uint8(KAnd), ops: []int{2, 4}},
		{kind: uint8(KOr), ops: []int{3, 5}},
	}
}

func codecBuilder() *Builder {
	b := NewBuilder()
	a7, a3 := b.Atom(7), b.Atom(3)
	b.Or(a3, b.And(a7, b.Not(a3)))
	return b
}

func TestBuilderRoundTrip(t *testing.T) {
	b := codecBuilder()
	var e wirebin.Writer
	if err := EncodeBuilder(&e, b); err != nil {
		t.Fatal(err)
	}
	if want := encodeNodes(codecNodes()); !bytes.Equal(e.B, want) {
		t.Fatalf("EncodeBuilder does not write the documented layout\ngot:  %v\nwant: %v", e.B, want)
	}
	r := wirebin.NewReader(e.B)
	got, err := DecodeBuilder(r)
	if err != nil || r.Rest() != 0 {
		t.Fatalf("decode: %v, %d bytes left", err, r.Rest())
	}
	if got.NumNodes() != b.NumNodes() {
		t.Fatalf("decoded %d nodes, want %d", got.NumNodes(), b.NumNodes())
	}
	for id := int32(0); int(id) < got.NumNodes(); id++ {
		if c := got.Node(id); c.ID() != int(id) || Ref(c) != id {
			t.Errorf("node %d decoded with id %d", id, c.ID())
		}
	}
	// The intern tables came back: rebuilding the same conditions finds the
	// decoded nodes and creates none.
	a7, a3 := got.Atom(7), got.Atom(3)
	if top := got.Or(a3, got.And(a7, got.Not(a3))); top != got.Node(6) || top.String() != "(a3 | (a7 & !a3))" {
		t.Errorf("rebuilt condition is %s (node %d), want node 6", top, top.ID())
	}
	if got.NumNodes() != b.NumNodes() {
		t.Errorf("rebuilding interned conditions created %d nodes", got.NumNodes()-b.NumNodes())
	}
	if Ref(nil) != -1 {
		t.Errorf("Ref(nil) = %d, want -1", Ref(nil))
	}
}

// TestDecodeBuilderRejectsMalformed feeds DecodeBuilder streams no genuine
// encoding can be; each must come back as an error.
func TestDecodeBuilderRejectsMalformed(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(ns []wireNode) []wireNode
		want    string
	}{
		{"operand not before its user", func(ns []wireNode) []wireNode { ns[4].ops[0] = 4; return ns }, "out-of-order operand"},
		{"operand past the table", func(ns []wireNode) []wireNode { ns[5].ops[1] = 99; return ns }, "out-of-order operand"},
		{"negative operand", func(ns []wireNode) []wireNode { ns[4].ops[0] = -1; return ns }, "out-of-order operand"},
		{"operand wider than 32 bits", func(ns []wireNode) []wireNode { ns[4].ops[0] += 1 << 32; return ns }, "out-of-order operand"},
		{"second true", func(ns []wireNode) []wireNode { ns[1].kind = uint8(KTrue); return ns }, "duplicates"},
		{"second false", func(ns []wireNode) []wireNode { return append(ns, wireNode{kind: uint8(KFalse)}) }, "duplicates"},
		{"duplicate atom", func(ns []wireNode) []wireNode { ns[3].atom = 7; return ns }, "duplicates"},
		{"duplicate negation", func(ns []wireNode) []wireNode { return append(ns, wireNode{kind: uint8(KNot), ops: []int{3}}) }, "duplicates"},
		{"duplicate conjunction", func(ns []wireNode) []wireNode { return append(ns, wireNode{kind: uint8(KAnd), ops: []int{2, 4}}) }, "duplicates"},
		{"unary conjunction", func(ns []wireNode) []wireNode { ns[5].ops = ns[5].ops[:1]; return ns }, "1 operands"},
		{"operands out of ID order", func(ns []wireNode) []wireNode { ns[5].ops = []int{4, 2}; return ns }, "operands out of order"},
		{"repeated operand", func(ns []wireNode) []wireNode { ns[5].ops = []int{2, 2}; return ns }, "operands out of order"},
		{"unknown kind", func(ns []wireNode) []wireNode { ns[6].kind = 9; return ns }, "unknown kind"},
		{"no constants", func(ns []wireNode) []wireNode { return []wireNode{{kind: uint8(KAtom), atom: 1}} }, "missing constant"},
		{"empty", func(ns []wireNode) []wireNode { return nil }, "missing constant"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeBuilder(wirebin.NewReader(encodeNodes(tc.corrupt(codecNodes()))))
			if err == nil {
				t.Fatal("decode accepted the stream")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	// A length no input can back, and the stream cut short anywhere.
	var huge wirebin.Writer
	huge.Uvarint(1 << 40)
	if _, err := DecodeBuilder(wirebin.NewReader(huge.B)); err == nil {
		t.Error("decode accepted a node count past the input")
	}
	full := encodeNodes(codecNodes())
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeBuilder(wirebin.NewReader(full[:cut])); err == nil {
			t.Fatalf("decode accepted the stream cut at %d of %d bytes", cut, len(full))
		}
	}
}
