package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced interval: a call into a layer, or a protocol phase
// observed from outside. Spans of one poll share Poll.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Poll   uint64 `json:"poll,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory; write saves them when the run ends. A nil
// *spanLog records nothing, so untraced code paths call it unconditionally.
type spanLog struct {
	mu    sync.Mutex
	next  uint64
	spans []span
}

// open starts a span and returns its id.
func (l *spanLog) open(name string, parent, poll uint64, start time.Time) uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	l.spans = append(l.spans, span{ID: l.next, Parent: parent, Name: name, Poll: poll, Start: start.UnixNano()})
	return l.next
}

// close ends span id.
func (l *spanLog) close(id uint64, end time.Time) {
	if l == nil || id == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].End = end.UnixNano()
}

// add records a finished span and returns its id.
func (l *spanLog) add(name string, parent, poll uint64, start, end time.Time) uint64 {
	if l == nil {
		return 0
	}
	id := l.open(name, parent, poll, start)
	l.close(id, end)
	return id
}

func (l *spanLog) len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// selfTimes sums, per span name, each span's duration minus the part of it
// its children cover.
func (l *spanLog) selfTimes() map[string]time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	type iv struct{ lo, hi int64 }
	children := make(map[uint64][]iv)
	for _, s := range l.spans {
		if s.Parent != 0 && s.End > s.Start {
			children[s.Parent] = append(children[s.Parent], iv{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range l.spans {
		if s.End <= s.Start {
			continue
		}
		covered := int64(0)
		// Children may overlap each other; count the union once.
		cs := children[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].lo < cs[j].lo })
		cur := iv{-1, -1}
		for _, c := range cs {
			lo, hi := max(c.lo, s.Start), min(c.hi, s.End)
			if hi <= lo {
				continue
			}
			if lo > cur.hi {
				if cur.hi > cur.lo {
					covered += cur.hi - cur.lo
				}
				cur = iv{lo, hi}
			} else if hi > cur.hi {
				cur.hi = hi
			}
		}
		if cur.hi > cur.lo {
			covered += cur.hi - cur.lo
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// write saves the spans as JSON lines, then one summary line of per-name
// self times.
func (l *spanLog) write(path string) error {
	if l == nil || path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	self := map[string]float64{}
	for k, v := range l.selfTimes() {
		self[k] = v.Seconds()
	}
	if err := enc.Encode(map[string]any{"self_s": self}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
