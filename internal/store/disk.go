package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Log format. The file starts with an 8-byte magic+version header; each
// record is length-prefixed and carries a CRC32 over its payload:
//
//	header : "PPSTOR\x00\x01"
//	record : u32 nsLen | u32 keyLen | u32 valLen | ns | key | val | u32 crc
//
// All integers are little-endian; crc is crc32.ChecksumIEEE(ns|key|val).
// The log is append-only: a Put for an existing key appends a superseding
// record, and the in-memory index keeps only the latest offset per key.
// Compact rewrites the live records into a temp file and renames it over
// the log, so readers either see the old complete log or the new one.
//
// Crash safety: records are framed and checksummed, so a torn append (or
// any trailing garbage) is detected at open and the log is truncated back
// to its last intact record. A checksum mismatch in the middle of the log
// invalidates the framing of everything after it; scanning stops there and
// the tail is dropped the same way. Dropped records are re-derived by the
// analysis (artifacts rebuild) — corruption can cost
// warmth, never correctness.
var diskMagic = [8]byte{'P', 'P', 'S', 'T', 'O', 'R', 0, 1}

const recHeaderLen = 12 // three u32 lengths
const maxRecLen = 1 << 30

// DiskOptions configures a DiskStore.
type DiskOptions struct {
	// Obs, when non-nil, receives store.* counters and gauges.
	Obs *obs.Recorder
}

// DiskStore is the persistent Store: an append-only checksummed log with an
// in-memory index of where each key's latest record lies. Nothing is kept
// of the records themselves — the session reads each of a project's few
// segment keys once per process, so a Get is one checksummed read of the
// file.
type DiskStore struct {
	dir string
	rec *obs.Recorder

	mu     sync.Mutex
	f      *os.File
	size   int64 // committed file size (append offset)
	index  map[string]indexEntry
	stats  Stats
	closed bool
}

type indexEntry struct {
	off    int64 // offset of the record header
	nsLen  int
	keyLen int
	valLen int
	crc    uint32
}

func indexKey(ns, key string) string { return ns + "\x00" + key }

// LogPath returns the path of the store's backing log inside dir.
func LogPath(dir string) string { return filepath.Join(dir, "store.log") }

// Open opens (creating if needed) the disk store rooted at dir. The log is
// scanned to rebuild the index; a corrupt or torn tail is truncated away
// (counted in Stats.CorruptRecords) so the store always opens usable.
func Open(dir string, opts DiskOptions) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &DiskStore{dir: dir, rec: opts.Obs, index: make(map[string]indexEntry)}
	if err := s.openAndScan(); err != nil {
		return nil, err
	}
	s.publish()
	return s, nil
}

func (s *DiskStore) openAndScan() error {
	path := LogPath(s.dir)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o666)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	if fi.Size() == 0 {
		if _, err := f.Write(diskMagic[:]); err != nil {
			f.Close()
			return fmt.Errorf("store: writing header: %w", err)
		}
		s.f, s.size = f, int64(len(diskMagic))
		return nil
	}
	var hdr [8]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil || hdr != diskMagic {
		f.Close()
		return fmt.Errorf("store: %s is not a pinpoint store log (bad header)", path)
	}
	// Scan records, remembering the end of the last intact one.
	good := int64(len(diskMagic))
	var lenBuf [recHeaderLen]byte
	buf := make([]byte, 0, 4096)
	for {
		if _, err := io.ReadFull(f, lenBuf[:]); err != nil {
			if err != io.EOF && err != io.ErrUnexpectedEOF {
				f.Close()
				return fmt.Errorf("store: scanning %s: %w", path, err)
			}
			if err == io.ErrUnexpectedEOF {
				s.stats.CorruptRecords++
			}
			break
		}
		nsLen := int(binary.LittleEndian.Uint32(lenBuf[0:4]))
		keyLen := int(binary.LittleEndian.Uint32(lenBuf[4:8]))
		valLen := int(binary.LittleEndian.Uint32(lenBuf[8:12]))
		if nsLen <= 0 || keyLen <= 0 || valLen < 0 ||
			nsLen > maxRecLen || keyLen > maxRecLen || valLen > maxRecLen {
			s.stats.CorruptRecords++
			break
		}
		payload := nsLen + keyLen + valLen
		if cap(buf) < payload+4 {
			buf = make([]byte, payload+4)
		}
		buf = buf[:payload+4]
		if _, err := io.ReadFull(f, buf); err != nil {
			s.stats.CorruptRecords++
			break
		}
		crc := binary.LittleEndian.Uint32(buf[payload:])
		if crc32.ChecksumIEEE(buf[:payload]) != crc {
			s.stats.CorruptRecords++
			break
		}
		ns := string(buf[:nsLen])
		key := string(buf[nsLen : nsLen+keyLen])
		k := indexKey(ns, key)
		if _, ok := s.index[k]; !ok {
			s.stats.Records++
		}
		s.index[k] = indexEntry{off: good, nsLen: nsLen, keyLen: keyLen, valLen: valLen, crc: crc}
		good += int64(recHeaderLen + payload + 4)
	}
	// Drop any torn/corrupt tail so future appends extend an intact log.
	fi, err = f.Stat()
	if err == nil && fi.Size() > good {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return fmt.Errorf("store: truncating corrupt tail of %s: %w", path, err)
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	s.f, s.size = f, good
	return nil
}

// Get implements Store: an index lookup, then one read of the record from
// the log with checksum verification. A record failing its checksum is
// dropped from the index and reported as a miss, so callers fall back to
// rebuilding — corrupted state can never produce wrong output.
func (s *DiskStore) Get(ns, key string) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, errors.New("store: closed")
	}
	k := indexKey(ns, key)
	ent, ok := s.index[k]
	if !ok {
		s.stats.Misses++
		s.count("store.misses")
		return nil, false, nil
	}
	val, err := s.readRecordLocked(ns, key, ent)
	if err != nil {
		// Checksum/framing failure: forget the record and miss.
		delete(s.index, k)
		s.stats.Records--
		s.stats.CorruptRecords++
		s.stats.Misses++
		s.count("store.corrupt_records")
		s.count("store.misses")
		s.publish()
		return nil, false, nil
	}
	s.stats.Hits++
	s.count("store.hits")
	return val, true, nil
}

// readRecordLocked reads and verifies one record; the value it returns is
// part of the buffer it read into.
func (s *DiskStore) readRecordLocked(ns, key string, ent indexEntry) ([]byte, error) {
	payload := ent.nsLen + ent.keyLen + ent.valLen
	buf := make([]byte, recHeaderLen+payload+4)
	if _, err := s.f.ReadAt(buf, ent.off); err != nil {
		return nil, err
	}
	if int(binary.LittleEndian.Uint32(buf[0:4])) != ent.nsLen ||
		int(binary.LittleEndian.Uint32(buf[4:8])) != ent.keyLen ||
		int(binary.LittleEndian.Uint32(buf[8:12])) != ent.valLen {
		return nil, errors.New("store: record framing mismatch")
	}
	body := buf[recHeaderLen : recHeaderLen+payload]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(buf[recHeaderLen+payload:]) {
		return nil, errors.New("store: record checksum mismatch")
	}
	if string(body[:ent.nsLen]) != ns || string(body[ent.nsLen:ent.nsLen+ent.keyLen]) != key {
		return nil, errors.New("store: record key mismatch")
	}
	return body[ent.nsLen+ent.keyLen:], nil
}

// Put implements Store. An identical re-put is recognised by its checksum,
// confirmed by one read of the held record, and skipped; new or changed
// content is appended.
func (s *DiskStore) Put(ns, key string, val []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("store: closed")
	}
	k := indexKey(ns, key)
	crc := crc32.ChecksumIEEE([]byte(ns))
	crc = crc32.Update(crc, crc32.IEEETable, []byte(key))
	crc = crc32.Update(crc, crc32.IEEETable, val)
	if ent, ok := s.index[k]; ok && ent.valLen == len(val) && ent.crc == crc {
		// Equal length and checksum is a hint, not proof: records that end in
		// a CRC of their own content, for one, all share a checksum at a given
		// length. Only the bytes say the record is already held.
		if held, err := s.readRecordLocked(ns, key, ent); err == nil && bytes.Equal(held, val) {
			s.stats.DedupedPuts++
			return nil
		}
	}
	off, err := s.appendLocked(ns, key, val, crc)
	if err != nil {
		return err
	}
	if _, ok := s.index[k]; !ok {
		s.stats.Records++
	}
	s.index[k] = indexEntry{off: off, nsLen: len(ns), keyLen: len(key), valLen: len(val), crc: crc}
	s.stats.Puts++
	s.count("store.puts")
	s.publish()
	return nil
}

func (s *DiskStore) appendLocked(ns, key string, val []byte, crc uint32) (int64, error) {
	off := s.size
	var hdr [recHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(ns)))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(key)))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(val)))
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc)
	for _, chunk := range [][]byte{hdr[:], []byte(ns), []byte(key), val, tail[:]} {
		if _, err := s.f.Write(chunk); err != nil {
			// The log may now hold a torn record; the next open truncates
			// it. Keep size pointing at the last intact boundary.
			if _, serr := s.f.Seek(off, io.SeekStart); serr == nil {
				_ = s.f.Truncate(off)
			}
			return 0, fmt.Errorf("store: append: %w", err)
		}
	}
	s.size = off + int64(recHeaderLen+len(ns)+len(key)+len(val)+4)
	return off, nil
}

// Stat implements Store.
func (s *DiskStore) Stat() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.DiskBytes = s.size
	return st
}

// Compact implements Store: the live records are rewritten (in sorted key
// order, for deterministic output) into store.log.tmp, fsynced, and
// renamed over the log — an interrupted compaction leaves the old log
// untouched.
func (s *DiskStore) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("store: closed")
	}
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	tmpPath := LogPath(s.dir) + ".tmp"
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o666)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	defer os.Remove(tmpPath) // no-op after the rename succeeds
	w := bufio.NewWriter(tmp)
	if _, err := w.Write(diskMagic[:]); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	newIndex := make(map[string]indexEntry, len(s.index))
	off := int64(len(diskMagic))
	var hdr [recHeaderLen]byte
	var tail [4]byte
	for _, k := range keys {
		ent := s.index[k]
		ns, key, _ := splitKey(k)
		val, err := s.readRecordLocked(ns, key, ent)
		if err != nil {
			// Unreadable record: drop it from the compacted log.
			s.stats.CorruptRecords++
			s.stats.Records--
			s.count("store.corrupt_records")
			continue
		}
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(ns)))
		binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(key)))
		binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(val)))
		binary.LittleEndian.PutUint32(tail[:], ent.crc)
		for _, chunk := range [][]byte{hdr[:], []byte(ns), []byte(key), val, tail[:]} {
			if _, err := w.Write(chunk); err != nil {
				tmp.Close()
				return fmt.Errorf("store: compact: %w", err)
			}
		}
		newIndex[k] = indexEntry{off: off, nsLen: len(ns), keyLen: len(key), valLen: len(val), crc: ent.crc}
		off += int64(recHeaderLen + len(ns) + len(key) + len(val) + 4)
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := os.Rename(tmpPath, LogPath(s.dir)); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	old := s.f
	f, err := os.OpenFile(LogPath(s.dir), os.O_RDWR, 0o666)
	if err != nil {
		return fmt.Errorf("store: compact: reopening log: %w", err)
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	old.Close()
	s.f, s.size, s.index = f, off, newIndex
	s.stats.Compactions++
	s.stats.LastCompactUnixNano = time.Now().UnixNano()
	s.count("store.compactions")
	s.publish()
	return nil
}

func splitKey(k string) (ns, key string, ok bool) {
	for i := 0; i < len(k); i++ {
		if k[i] == 0 {
			return k[:i], k[i+1:], true
		}
	}
	return "", "", false
}

// Close implements Store: flushes and fsyncs the log.
func (s *DiskStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	serr := s.f.Sync()
	cerr := s.f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

func (s *DiskStore) count(name string) {
	if s.rec != nil {
		s.rec.Counter(name).Inc()
	}
}

func (s *DiskStore) publish() {
	if s.rec == nil {
		return
	}
	s.rec.Gauge("store.records").Set(int64(s.stats.Records))
	s.rec.Gauge("store.disk_bytes").Set(s.size)
}
