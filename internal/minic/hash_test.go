package minic

import (
	"os"
	"path/filepath"
	"testing"
)

func parseOne(t *testing.T, src string) *File {
	t.Helper()
	f, err := ParseFile("t.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestHashFuncStable(t *testing.T) {
	src := "int f(int a) { int b = a + 1; return b; }"
	f1 := parseOne(t, src)
	f2 := parseOne(t, src)
	if HashFunc(f1.Funcs[0]) != HashFunc(f2.Funcs[0]) {
		t.Error("identical source hashed differently")
	}
}

func TestHashFuncSensitivity(t *testing.T) {
	base := parseOne(t, "int f(int a) { return a + 1; }").Funcs[0]
	variants := map[string]string{
		"literal":  "int f(int a) { return a + 2; }",
		"operator": "int f(int a) { return a - 1; }",
		"name":     "int g(int a) { return a + 1; }",
		"param":    "int f(int b) { return b + 1; }",
		"ret type": "int *f(int a) { return null; }",
		// Same text, shifted one line down: positions are part of the key.
		"position": "\nint f(int a) { return a + 1; }",
	}
	for what, src := range variants {
		v := parseOne(t, src).Funcs[0]
		if HashFunc(base) == HashFunc(v) {
			t.Errorf("%s change not reflected in hash", what)
		}
	}
}

func TestHashSource(t *testing.T) {
	if HashSource("a.mc", "x") == HashSource("a.mc", "y") {
		t.Error("content change not reflected")
	}
	if HashSource("a.mc", "x") == HashSource("b.mc", "x") {
		t.Error("unit name not reflected")
	}
	if HashSource("a.mc", "x") != HashSource("a.mc", "x") {
		t.Error("hash not stable")
	}
}

func TestCalleeNames(t *testing.T) {
	f := parseOne(t, `
int f(int a) {
	int *p = malloc();
	helper(p, other(a));
	free(p);
	if (a > 0) { helper(p, 1); }
	return zed();
}`).Funcs[0]
	got := AppendCalleeNames([]string{"kept"}, f)
	want := []string{"kept", "helper", "other", "zed"}
	if len(got) != len(want) {
		t.Fatalf("callees = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("callees = %v, want %v", got, want)
		}
	}
}

// allKindsSrc exercises every statement and expression node the hasher
// encodes (struct/arrow, while, for, unary, null/bool/int literals, nested
// blocks, negative and 64-bit integers).
const allKindsSrc = `struct node { int val; struct node *next; };
int g = 3;
int *walk(struct node *n, bool flag, int k) {
	int acc = 0 - 17;
	while (n != null && !flag) {
		acc = acc + n->val * 2 % 7;
		n = n->next;
	}
	for (int i = 0; i < k; i = i + 1) { acc = acc - i; }
	if (flag || acc >= 9223372036854775807) { return null; } else { helper(&acc, true, false); }
	{ int *p = malloc(); *p = -acc; free(p); }
	return &g;
}
void empty() { }
`

// TestHashGoldenDigests pins HashSource and HashFunc digests. They key the
// persistent artifact store, so a change to the hashed byte stream silently
// turns every populated -store-dir into a cold one; the values below were
// produced by the fmt.Fprintf-based hasher this one replaced.
func TestHashGoldenDigests(t *testing.T) {
	golden := map[string]string{
		"examples/mc/leaks.mc":                 "86262ff20b7b34e43ece78a8",
		"examples/mc/leaks.mc:forgot_free":     "4f264320fb55d7058dc7d27f",
		"examples/mc/leaks.mc:half_release":    "14ca020f98b8c92bf31e2e8f",
		"examples/mc/leaks.mc:full_release":    "4a1d250bf6dbe9ffec15afa3",
		"examples/mc/leaks.mc:make_obj":        "586b7eaccf586d5a410f2601",
		"examples/mc/taint.mc":                 "a454749dffdd855c856829d0",
		"examples/mc/taint.mc:normalize_req":   "afd95e36e8d6a0e223884215",
		"examples/mc/taint.mc:handle_req":      "b5bec8bf924e5a3a93fc6429",
		"examples/mc/taint.mc:audit_login":     "c47cd091a7dd0eb26b4792ed",
		"examples/mc/taint.mc:load_defaults":   "b1bd518435c43cdf0de1f8c0",
		"examples/mc/taint.mc:deref_unchecked": "8c4296c6ac4897eb4b3d8e6b",
		"examples/mc/uaf.mc":                   "ccabff8014a380015136d30c",
		"examples/mc/uaf.mc:uaf_conditional":   "d120fdebfae368143472592c",
		"examples/mc/uaf.mc:uaf_safe":          "e8753094add764d246d5758a",
		"examples/mc/uaf.mc:release":           "daacda0f4bf95acb539b1a39",
		"examples/mc/uaf.mc:df_helper":         "6058c1739ee39da9097af115",
		"kinds.mc:walk":                        "ecb7ad702c147f4448b9dbae",
		"kinds.mc:empty":                       "818493e6e1b98c8ba3c6d1e5",
	}
	seen := 0
	check := func(key, got string) {
		t.Helper()
		seen++
		if want, ok := golden[key]; !ok || got != want {
			t.Errorf("%s: digest %s, want %s", key, got, want)
		}
	}
	files, err := filepath.Glob("../../examples/mc/*.mc")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example inputs: %v", err)
	}
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		name := "examples/mc/" + filepath.Base(p)
		check(name, HashSource(name, string(b)))
		f, err := ParseFile(name, string(b))
		if err != nil {
			t.Fatal(err)
		}
		for _, fn := range f.Funcs {
			check(name+":"+fn.Name, HashFunc(fn))
		}
	}
	f, err := ParseFile("kinds.mc", allKindsSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range f.Funcs {
		check("kinds.mc:"+fn.Name, HashFunc(fn))
	}
	if seen != len(golden) {
		t.Errorf("checked %d digests, golden table has %d", seen, len(golden))
	}
}
