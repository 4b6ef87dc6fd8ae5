package incr

import (
	"errors"
	"fmt"
	"io"
	"os"

	"sptc/internal/resilience"
)

// Fault-injection points on the log's durability paths (see
// resilience.Point.Writer): every disk write the log performs goes
// through a failing-writer shim armed by these names, so disk-full,
// short-write, and rename failures are testable without real faults.
var (
	flushPoint  = resilience.Register("incr.log.flush")
	renamePoint = resilience.Register("incr.log.rename")
)

// SyncPolicy selects when the log fsyncs.
type SyncPolicy int

const (
	// SyncNone never fsyncs on Flush: the OS decides when appended
	// records reach the platter. Compaction still fsyncs before its
	// rename (crash atomicity of the rewrite is not negotiable).
	SyncNone SyncPolicy = iota
	// SyncFlush fsyncs after every Flush append, so a completed flush
	// survives power loss, not just process death.
	SyncFlush
)

// RecordLog is the framed append-only binary log underneath both the
// loop-level result store and the service's whole-program response
// cache. The file format is ninja build-log style:
//
//	header:  magic bytes (an 8-byte version tag, e.g. "sptincr3")
//	record:  u32 payload length | payload | u64 FNV-1a(payload)
//
// Records append; payload interpretation (keys, last-record-wins) is the
// caller's business. Open salvages the longest valid prefix of a corrupt
// or truncated file — a damaged log can cost warm hits but never fails
// the caller. Flush appends records queued since the last flush (the
// incremental durability path a daemon runs on a ticker); Save flushes
// or compacts (full rewrite of live records only) after a salvage or
// when total records outnumber live ones 2:1.
//
// RecordLog is not safe for concurrent use; callers serialize access
// under their own lock.
type RecordLog struct {
	magic    string
	path     string // empty: in-memory only, persistence is a no-op
	pending  []byte // framed records not yet appended to path
	records  int    // records in file + pending (incl. superseded)
	salvaged bool   // load dropped a damaged tail: rewrite on save
	sync     SyncPolicy
}

// NewRecordLog returns a log persisting to path under the given magic
// header. An empty path gives a purely in-memory log whose Flush, Save
// and Compact are no-ops.
func NewRecordLog(magic, path string) *RecordLog {
	return &RecordLog{magic: magic, path: path}
}

// OpenRecordLog loads the log at path, creating it on first use, and
// calls fn once per checksum-valid record in file order. fn returning
// false stops the scan and marks the log for rewrite, exactly like a
// damaged record (fail-soft decode errors). Content damage never returns
// an error; the error path is for real I/O failures only.
func OpenRecordLog(magic, path string, fn func(payload []byte) bool) (*RecordLog, error) {
	l := NewRecordLog(magic, path)
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return l, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	l.load(data, fn)
	return l, nil
}

// load parses the longest valid prefix of a log image.
func (l *RecordLog) load(data []byte, fn func(payload []byte) bool) {
	if len(data) < len(l.magic) || string(data[:len(l.magic)]) != l.magic {
		// Unrecognized file: treat as empty, rewrite on save.
		l.salvaged = len(data) > 0
		return
	}
	off := len(l.magic)
	for {
		if off == len(data) {
			return // clean end
		}
		if off+4 > len(data) {
			break
		}
		n := int(uint32(data[off]) | uint32(data[off+1])<<8 | uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
		rec := off + 4
		if n < 0 || rec+n+8 > len(data) {
			break // truncated record
		}
		payload := data[rec : rec+n]
		sumOff := rec + n
		var sum uint64
		for i := 0; i < 8; i++ {
			sum |= uint64(data[sumOff+i]) << (8 * i)
		}
		if payloadHash(payload) != sum {
			break // corrupt record
		}
		if !fn(payload) {
			break // caller rejected the payload
		}
		l.records++
		off = sumOff + 8
	}
	l.salvaged = true
}

// SetSync selects the fsync policy for Flush appends.
func (l *RecordLog) SetSync(p SyncPolicy) { l.sync = p }

// Append queues one record for the next Flush/Save and counts it.
// Framing is skipped for in-memory logs; the record count still advances
// so the compaction policy stays meaningful if a path is ever attached.
func (l *RecordLog) Append(payload []byte) {
	l.records++
	if l.path == "" {
		return
	}
	var enc encoder
	enc.u32(uint32(len(payload)))
	enc.buf = append(enc.buf, payload...)
	enc.u64(payloadHash(payload))
	l.pending = append(l.pending, enc.buf...)
}

// Records reports records in the file plus pending ones, including
// superseded records not yet compacted away.
func (l *RecordLog) Records() int { return l.records }

// Pending reports the framed bytes queued but not yet flushed.
func (l *RecordLog) Pending() int { return len(l.pending) }

// Salvaged reports whether load dropped a damaged tail, or a failed
// flush may have left one (the next Save will compact).
func (l *RecordLog) Salvaged() bool { return l.salvaged }

// Path returns the backing file path ("" for in-memory logs).
func (l *RecordLog) Path() string { return l.path }

// Flush appends pending records to the file without compacting: the
// incremental durability path. After a successful flush (plus an fsync
// under SyncFlush) every record appended so far survives a hard kill —
// a crash loses at most the records queued since the last flush.
//
// On a write failure the file may hold a torn frame, so the log is
// marked salvaged: the in-memory state is untouched and still complete,
// pending records are retained, and the next Save compacts (a full
// clean rewrite through temp+rename). A failed flush therefore never
// loses data that a later Save or restart-salvage can't recover.
func (l *RecordLog) Flush() error {
	if l.path == "" || len(l.pending) == 0 {
		return nil
	}
	if l.salvaged {
		// The file already has a damaged tail; appending after it would
		// put records beyond salvage reach. Leave them pending for the
		// compacting Save.
		return nil
	}
	if err := l.flushLocked(); err != nil {
		l.salvaged = true
		return err
	}
	return nil
}

func (l *RecordLog) flushLocked() error {
	f, err := os.OpenFile(l.path, os.O_WRONLY|os.O_CREATE, 0o666)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	w := flushPoint.Writer(f)
	if st.Size() == 0 {
		if _, err := w.Write([]byte(l.magic)); err != nil {
			f.Close()
			return err
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return err
	}
	if _, err := w.Write(l.pending); err != nil {
		f.Close()
		return err
	}
	if l.sync == SyncFlush {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	l.pending = nil
	return nil
}

// Save persists pending records. It flushes (appends) when the log is
// healthy and compacts after a salvage, a failed flush, or when total
// records outnumber the caller's live count 2:1; rewrite must emit every
// live record. A no-op for in-memory logs.
func (l *RecordLog) Save(live int, rewrite func(emit func(payload []byte))) error {
	if l.path == "" {
		return nil
	}
	if l.salvaged || l.records > 2*live {
		return l.Compact(rewrite)
	}
	return l.Flush()
}

// Compact rewrites the file with only the records rewrite emits, via a
// temp file fsynced before an atomic rename, so a crash at any point —
// including between the write and the rename — leaves either the old
// complete log or the new complete log, never a torn one. A no-op for
// in-memory logs.
func (l *RecordLog) Compact(rewrite func(emit func(payload []byte))) error {
	if l.path == "" {
		return nil
	}
	tmp := l.path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	var enc encoder
	enc.buf = append(enc.buf, l.magic...)
	live := 0
	rewrite(func(payload []byte) {
		enc.u32(uint32(len(payload)))
		enc.buf = append(enc.buf, payload...)
		enc.u64(payloadHash(payload))
		live++
	})
	if _, err := flushPoint.Writer(f).Write(enc.buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	// fsync before rename: without it the rename can hit the directory
	// before the data hits the disk, and a power loss then replaces the
	// old log with a hole instead of the new records.
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := renamePoint.Fire(nil); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("incr: compact %s: %w", l.path, err)
	}
	if err := os.Rename(tmp, l.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("incr: compact %s: %w", l.path, err)
	}
	l.pending = nil
	l.records = live
	l.salvaged = false
	return nil
}
