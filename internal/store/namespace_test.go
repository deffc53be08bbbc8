package store

import (
	"path/filepath"
	"testing"
)

// Distinct projects see disjoint key spaces over one shared store; the
// default project sees the bare store, so records written before the
// tenant layer existed stay visible to it.
func TestNamespacedIsolation(t *testing.T) {
	base, err := Open(t.TempDir(), DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()

	alpha := Namespaced(base, "alpha")
	beta := Namespaced(base, "beta")
	def := Namespaced(base, DefaultProject)
	if def != Store(base) {
		t.Fatal("default project view is not the bare store")
	}
	if got := Namespaced(base, ""); got != Store(base) {
		t.Fatal("empty project view is not the bare store")
	}

	if err := base.Put(NSArtifact, "k", []byte("legacy")); err != nil {
		t.Fatal(err)
	}
	if err := alpha.Put(NSArtifact, "k", []byte("from-alpha")); err != nil {
		t.Fatal(err)
	}
	if err := beta.Put(NSArtifact, "k", []byte("from-beta")); err != nil {
		t.Fatal(err)
	}

	want := map[string]string{"legacy": "", "from-alpha": "", "from-beta": ""}
	for name, view := range map[string]Store{"default": def, "alpha": alpha, "beta": beta} {
		v, ok, err := view.Get(NSArtifact, "k")
		if err != nil || !ok {
			t.Fatalf("%s: Get = ok=%v err=%v", name, ok, err)
		}
		switch name {
		case "default":
			if string(v) != "legacy" {
				t.Errorf("default read %q, want the un-prefixed record", v)
			}
		case "alpha":
			if string(v) != "from-alpha" {
				t.Errorf("alpha read %q", v)
			}
		case "beta":
			if string(v) != "from-beta" {
				t.Errorf("beta read %q", v)
			}
		}
		delete(want, string(v))
	}
	if len(want) != 0 {
		t.Errorf("cross-project reads collided; unseen records: %v", want)
	}

	// The view shares the physical store: three records live in one log.
	if st := base.Stat(); st.Records != 3 {
		t.Errorf("shared store holds %d records, want 3", st.Records)
	}

	// Closing a view must not close the shared store.
	if err := alpha.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := beta.Get(NSArtifact, "k"); err != nil || !ok {
		t.Fatalf("store unusable after closing a namespaced view: ok=%v err=%v", ok, err)
	}
}

// Namespaced records survive a reopen under the same prefix — the warm
// re-admission path an evicted tenant depends on.
func TestNamespacedReopen(t *testing.T) {
	dir := t.TempDir()
	base, err := Open(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Namespaced(base, "proj").Put(NSArtifact, "v", []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := base.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(filepath.Clean(dir), DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	v, ok, err := Namespaced(re, "proj").Get(NSArtifact, "v")
	if err != nil || !ok || len(v) != 1 || v[0] != 1 {
		t.Fatalf("namespaced record lost across reopen: %v ok=%v err=%v", v, ok, err)
	}
	if _, ok, _ := re.Get(NSArtifact, "v"); ok {
		t.Fatal("bare store sees the namespaced record")
	}
}
