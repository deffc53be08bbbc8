package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

func TestDiskStoreRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string][]byte{}
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("key-%02d", i)
		v := bytes.Repeat([]byte{byte(i)}, 100+i)
		vals[k] = v
		if err := s.Put(NSArtifact, k, v); err != nil {
			t.Fatal(err)
		}
	}
	// Supersede one, dedup another.
	vals["key-03"] = []byte("replaced")
	if err := s.Put(NSArtifact, "key-03", vals["key-03"]); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(NSArtifact, "key-04", vals["key-04"]); err != nil {
		t.Fatal(err)
	}
	if st := s.Stat(); st.DedupedPuts != 1 || st.Records != 20 {
		t.Fatalf("stats = %+v", st)
	}
	for k, want := range vals {
		got, ok, err := s.Get(NSArtifact, k)
		if err != nil || !ok || !bytes.Equal(got, want) {
			t.Fatalf("Get(%s) = %q ok=%v err=%v, want %q", k, got, ok, err, want)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the scan must rebuild the index with last-writer-wins.
	s2, err := Open(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stat(); st.Records != 20 || st.CorruptRecords != 0 {
		t.Fatalf("reopen stats = %+v", st)
	}
	for k, want := range vals {
		got, ok, err := s2.Get(NSArtifact, k)
		if err != nil || !ok || !bytes.Equal(got, want) {
			t.Fatalf("reopen Get(%s) = %q ok=%v err=%v, want %q", k, got, ok, err, want)
		}
	}
}

// TestDiskStorePutSameChecksum: a record that ends in the CRC of what
// precedes it has a checksum that depends on its length alone, so two such
// records of one length look alike to the store's checksum. The second must
// still supersede the first: a Put is skipped for equal bytes, nothing less.
func TestDiskStorePutSameChecksum(t *testing.T) {
	s, err := Open(t.TempDir(), DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	selfSummed := func(body string) []byte {
		return binary.LittleEndian.AppendUint32([]byte(body), crc32.ChecksumIEEE([]byte(body)))
	}
	first, second := selfSummed("the first body"), selfSummed("another body!!")
	if crc32.ChecksumIEEE(first) != crc32.ChecksumIEEE(second) {
		t.Fatal("the two records do not share a checksum; the test tests nothing")
	}
	for _, val := range [][]byte{first, second, second} {
		if err := s.Put(NSArtifact, "k", val); err != nil {
			t.Fatal(err)
		}
	}
	got, ok, err := s.Get(NSArtifact, "k")
	if err != nil || !ok || !bytes.Equal(got, second) {
		t.Fatalf("Get = %q ok=%v err=%v, want the second record", got, ok, err)
	}
	if st := s.Stat(); st.Puts != 2 || st.DedupedPuts != 1 {
		t.Fatalf("stats = %+v, want 2 puts and 1 deduplicated", st)
	}
}

func TestDiskStoreTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(NSArtifact, "a", []byte("intact record")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(NSArtifact, "b", []byte("this one gets torn")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the last record mid-payload, as a crash during append would.
	path := LogPath(dir)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.Stat()
	if st.CorruptRecords == 0 || st.Records != 1 {
		t.Fatalf("stats after torn tail = %+v", st)
	}
	if v, ok, _ := s2.Get(NSArtifact, "a"); !ok || string(v) != "intact record" {
		t.Fatalf("intact record lost: %q ok=%v", v, ok)
	}
	if _, ok, _ := s2.Get(NSArtifact, "b"); ok {
		t.Fatal("torn record served")
	}
	// The truncated log must accept new appends and survive a reopen.
	if err := s2.Put(NSArtifact, "c", []byte("after recovery")); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if v, ok, _ := s3.Get(NSArtifact, "c"); !ok || string(v) != "after recovery" {
		t.Fatalf("post-recovery append lost: %q ok=%v", v, ok)
	}
}

func TestDiskStoreBitFlip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(NSArtifact, "a", bytes.Repeat([]byte("x"), 64)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(NSArtifact, "b", bytes.Repeat([]byte("y"), 64)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one bit inside the first record's value.
	path := LogPath(dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, bytes.Repeat([]byte("x"), 64))
	if i < 0 {
		t.Fatal("value not found in log")
	}
	data[i+10] ^= 0x40
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}

	// The flip invalidates record a's checksum; the open-time scan stops
	// there, dropping a and everything after it — detected, never served.
	s2, err := Open(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stat(); st.CorruptRecords == 0 {
		t.Fatalf("bit flip not detected: %+v", st)
	}
	if v, ok, _ := s2.Get(NSArtifact, "a"); ok {
		t.Fatalf("corrupt record served: %q", v)
	}
}

func TestDiskStoreGetTimeCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(NSArtifact, "a", bytes.Repeat([]byte("z"), 64)); err != nil {
		t.Fatal(err)
	}
	// Corrupt the record behind the store's back.
	data, err := os.ReadFile(LogPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, bytes.Repeat([]byte("z"), 64))
	data[i] ^= 0x01
	f, err := os.OpenFile(LogPath(dir), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(data[i:i+1], int64(i)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if _, ok, err := s.Get(NSArtifact, "a"); err != nil || ok {
		t.Fatalf("corrupt read-time Get = ok=%v err=%v, want miss", ok, err)
	}
	st := s.Stat()
	if st.CorruptRecords != 1 || st.Records != 0 {
		t.Fatalf("stats after read-time corruption = %+v", st)
	}
}

func TestDiskStoreCompact(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Write each key several times so the log holds garbage.
	for round := 0; round < 5; round++ {
		for i := 0; i < 8; i++ {
			v := fmt.Sprintf("round-%d-key-%d-%s", round, i, bytes.Repeat([]byte("p"), 50))
			if err := s.Put(NSArtifact, fmt.Sprintf("k%d", i), []byte(v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := s.Stat().DiskBytes
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	st := s.Stat()
	if st.DiskBytes >= before {
		t.Fatalf("compaction did not shrink log: %d -> %d", before, st.DiskBytes)
	}
	if st.Compactions != 1 || st.LastCompactUnixNano == 0 || st.Records != 8 {
		t.Fatalf("stats after compact = %+v", st)
	}
	// Records survive compaction, appends still work, and a reopen sees
	// the compacted log.
	for i := 0; i < 8; i++ {
		v, ok, err := s.Get(NSArtifact, fmt.Sprintf("k%d", i))
		if err != nil || !ok || !bytes.Contains(v, []byte("round-4")) {
			t.Fatalf("post-compact Get(k%d) = %q ok=%v err=%v", i, v, ok, err)
		}
	}
	if err := s.Put(NSArtifact, "post", []byte("post-compact append")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stat(); st.Records != 9 || st.CorruptRecords != 0 {
		t.Fatalf("reopen-after-compact stats = %+v", st)
	}
	if v, ok, _ := s2.Get(NSArtifact, "post"); !ok || string(v) != "post-compact append" {
		t.Fatalf("post-compact append lost: %q ok=%v", v, ok)
	}
	if _, err := os.Stat(filepath.Join(dir, "store.log.tmp")); !os.IsNotExist(err) {
		t.Fatalf("compaction temp file left behind: %v", err)
	}
}

func TestDiskStoreConcurrent(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 50; i++ {
				k := fmt.Sprintf("g%d-k%d", g, i%10)
				v := bytes.Repeat([]byte{byte(g)}, 64+i)
				if err := s.Put(NSArtifact, k, v); err != nil {
					done <- err
					return
				}
				if got, ok, err := s.Get(NSArtifact, k); err != nil || (ok && len(got) == 0) {
					done <- fmt.Errorf("Get(%s) ok=%v err=%v", k, ok, err)
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
