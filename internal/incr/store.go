package incr

import (
	"sync"
)

// The loop-result store persists through a RecordLog (see log.go): an
// append-only binary log of encoded (Key, Entry) records under the
// "sptincr3" magic. Records append; the last record for a key wins.
// Load salvages the longest valid prefix of a corrupt or truncated file
// — a damaged store can cost warm hits but can never fail a build.

const storeMagic = "sptincr3"

// Status classifies one store lookup.
type Status int

// Lookup outcomes. A lookup is Invalidated when the loop's structural
// slot was seen before with a different fingerprint — the "this loop
// changed" signal, as opposed to a Miss for a never-seen loop.
const (
	StatusMiss Status = iota
	StatusHit
	StatusInvalidated
)

func (s Status) String() string {
	switch s {
	case StatusMiss:
		return "miss"
	case StatusHit:
		return "hit"
	case StatusInvalidated:
		return "invalidated"
	}
	return "?"
}

// Store is a loop-result store: Key -> Entry, optionally persisted.
// Safe for concurrent use (the evaluation harness shares one store
// across concurrent compile jobs).
type Store struct {
	mu      sync.Mutex
	log     *RecordLog
	entries map[Key]*Entry
	slots   map[string]uint64 // slot -> last fingerprint seen
}

// New returns an empty in-memory store (no persistence; Save is a no-op).
func New() *Store {
	return &Store{
		log:     NewRecordLog(storeMagic, ""),
		entries: make(map[Key]*Entry),
		slots:   make(map[string]uint64),
	}
}

// Open loads the store at path, creating it on first use. Corrupt or
// truncated content is salvaged (longest valid prefix, damaged tail
// dropped and rewritten on the next Save): content damage never returns
// an error. The error path is for real I/O failures only.
func Open(path string) (*Store, error) {
	s := New()
	log, err := OpenRecordLog(storeMagic, path, func(payload []byte) bool {
		k, e, err := decodeRecord(payload)
		if err != nil {
			return false
		}
		s.entries[k] = e
		s.slots[e.Slot] = k.FP
		return true
	})
	if err != nil {
		return nil, err
	}
	s.log = log
	return s, nil
}

// Lookup fetches the entry for k and classifies the outcome using slot
// (the loop's structural position). On a hit the slot's fingerprint is
// refreshed in memory so later invalidation counts stay accurate.
func (s *Store) Lookup(k Key, slot string) (*Entry, Status) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[k]; ok {
		s.slots[slot] = k.FP
		return e, StatusHit
	}
	if prev, seen := s.slots[slot]; seen && prev != k.FP {
		return nil, StatusInvalidated
	}
	return nil, StatusMiss
}

// Put stores e under k and queues the record for the next Save.
func (s *Store) Put(k Key, e *Entry) {
	payload := encodeRecord(k, e)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries[k] = e
	s.slots[e.Slot] = k.FP
	s.log.Append(payload)
}

// Len returns the number of live entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// SetSync selects the underlying log's fsync policy for Flush appends.
func (s *Store) SetSync(p SyncPolicy) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log.SetSync(p)
}

// Flush appends records queued since the last flush without compacting:
// the incremental durability path a daemon runs on a ticker, so a hard
// kill loses at most one flush window of entries. A flush failure marks
// the log for a compacting rewrite on the next Save and never disturbs
// the in-memory state.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Flush()
}

// Save persists pending records. It appends when the log is healthy and
// compacts (full rewrite of live entries only) after a salvage or when
// superseded records outnumber live ones. A no-op for in-memory stores.
func (s *Store) Save() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Save(len(s.entries), s.rewrite)
}

// Compact rewrites the store file with live entries only.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Compact(s.rewrite)
}

func (s *Store) rewrite(emit func(payload []byte)) {
	for k, e := range s.entries {
		emit(encodeRecord(k, e))
	}
}
