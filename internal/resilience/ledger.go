package resilience

import "unap2p/internal/underlay"

// Ledger is the eviction record behind the Detector and every simulated
// Healer: which peers have been declared dead, marked at most once. The
// eight overlays embed it — gaining the advisory Suspect, IsEvicted and
// the sorted Evicted view — and open their own Evict with MarkEvicted,
// which is what makes every repair idempotent. The zero value is an empty
// ledger. A Ledger is not goroutine-safe. A live node keeps no copy of
// its own: its address book refuses an evicted id (see
// nettransport.AddressBook.Remove).
type Ledger struct {
	evicted map[underlay.HostID]bool
}

// Suspect is the advisory half of Healer and records nothing: suspicion
// can be recanted, the Detector alone tracks who is currently doubted,
// and overlays touch no state before eviction.
func (l *Ledger) Suspect(underlay.HostID) {}

// MarkEvicted records id as evicted and reports whether this call was the
// first to do so; an Evict that gets false has nothing left to repair.
func (l *Ledger) MarkEvicted(id underlay.HostID) bool {
	if l.evicted[id] {
		return false
	}
	if l.evicted == nil {
		l.evicted = make(map[underlay.HostID]bool)
	}
	l.evicted[id] = true
	return true
}

// IsEvicted reports whether id has been evicted.
func (l *Ledger) IsEvicted(id underlay.HostID) bool { return l.evicted[id] }

// Evicted returns the peers evicted so far, sorted.
func (l *Ledger) Evicted() []underlay.HostID { return underlay.SortedIDs(l.evicted) }
