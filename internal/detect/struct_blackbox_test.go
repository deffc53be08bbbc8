package detect_test

import (
	"testing"

	"repro/internal/checkers"
	"repro/internal/detect"
)

// Struct support end-to-end: field-sensitive locally, collapsed across
// connectors, and fully integrated with the checkers.

func TestStructFieldUAF(t *testing.T) {
	reports, _ := check(t, `
struct Node {
	int *payload;
	int tag;
};
void f() {
	struct Node *n = malloc();
	int *buf = malloc();
	n->payload = buf;
	free(buf);
	int *back = n->payload;
	int v = *back;
	use_val(v);
}`, checkers.UseAfterFree(), detect.Options{})
	if len(reports) != 1 {
		t.Fatalf("field-routed UAF: reports = %v, want 1", reports)
	}
}

func TestStructFieldSensitivityNoFalsePositive(t *testing.T) {
	// The freed pointer sits in field a; the dereferenced one comes from
	// field b. Field-sensitive points-to must keep them apart.
	reports, _ := check(t, `
struct Pair {
	int *a;
	int *b;
};
void f() {
	struct Pair *p = malloc();
	int *x = malloc();
	int *y = malloc();
	p->a = x;
	p->b = y;
	free(x);
	int *safe = p->b;
	int v = *safe;
	use_val(v);
}`, checkers.UseAfterFree(), detect.Options{})
	if len(reports) != 0 {
		t.Fatalf("fields conflated: %v", reports)
	}
}

func TestStructFreedBaseFieldAccessIsUAF(t *testing.T) {
	// Freeing the struct makes every field access dangling.
	reports, _ := check(t, `
struct Box {
	int val;
};
void f() {
	struct Box *b = malloc();
	b->val = 1;
	free(b);
	int v = b->val;
	use_val(v);
}`, checkers.UseAfterFree(), detect.Options{})
	if len(reports) != 1 {
		t.Fatalf("freed-base field access missed: %v", reports)
	}
}

func TestStructFieldConditionCorrelation(t *testing.T) {
	// Free and use of the field value under complementary conditions.
	reports, _ := check(t, `
struct S { int *p; };
void f(bool c) {
	struct S *s = malloc();
	int *buf = malloc();
	s->p = buf;
	if (c) { free(buf); }
	if (!c) { int *q = s->p; int v = *q; use_val(v); }
}`, checkers.UseAfterFree(), detect.Options{})
	if len(reports) != 0 {
		t.Fatalf("infeasible struct path reported: %v", reports)
	}
	reports2, _ := check(t, `
struct S { int *p; };
void f(bool c) {
	struct S *s = malloc();
	int *buf = malloc();
	s->p = buf;
	if (c) { free(buf); }
	if (c) { int *q = s->p; int v = *q; use_val(v); }
}`, checkers.UseAfterFree(), detect.Options{})
	if len(reports2) != 1 {
		t.Fatalf("feasible struct path missed: %v", reports2)
	}
}

func TestStructCrossFunction(t *testing.T) {
	// The callee frees the payload it is handed through a struct field —
	// the connector interface collapses fields, which is sound (may-
	// alias) and here also precise enough.
	reports, _ := check(t, `
struct Conn { int *session; };
void teardown(int *s) { free(s); }
void f() {
	struct Conn *c = malloc();
	int *sess = malloc();
	c->session = sess;
	teardown(c->session);
	int *again = c->session;
	int v = *again;
	use_val(v);
}`, checkers.UseAfterFree(), detect.Options{})
	if len(reports) != 1 {
		t.Fatalf("cross-function struct UAF missed: %v", reports)
	}
}

func TestStructLeak(t *testing.T) {
	// The payload is freed but the struct itself is not.
	a := buildAnalysis(t, `
struct Holder { int *data; };
void f() {
	struct Holder *h = malloc();
	int *d = malloc();
	h->data = d;
	free(d);
}`)
	leaks, _ := a.Check(checkers.MemoryLeak(), detect.Options{})
	if len(leaks) != 1 {
		t.Fatalf("struct leak: %v, want exactly the Holder allocation", leaks)
	}
}
