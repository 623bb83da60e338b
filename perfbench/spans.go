package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the recorder's epoch; Parent is the index of the
// causing span in the same recorder (-1 for a root); Req ties the spans
// of one request together.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
}

// recorder keeps spans in a preallocated in-memory buffer; nothing is
// written until the run ends. Appends are lock-free; spans past the
// buffer's capacity are counted and dropped.
type recorder struct {
	epoch   time.Time
	buf     []span
	next    atomic.Int64
	dropped atomic.Int64
}

func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), buf: make([]span, capacity)}
}

// now returns nanoseconds since the recorder's epoch.
func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// add records a span and returns its index (-1 when dropped or when r is
// nil, so untraced code paths can call it unconditionally).
func (r *recorder) add(name string, start, end int64, parent int32, req int64) int32 {
	if r == nil {
		return -1
	}
	i := r.next.Add(1) - 1
	if i >= int64(len(r.buf)) {
		r.dropped.Add(1)
		return -1
	}
	r.buf[i] = span{Name: name, Start: start, End: end, Parent: parent, Req: req}
	return int32(i)
}

// spans returns the recorded spans (call once recording has stopped).
func (r *recorder) spans() []span {
	n := r.next.Load()
	if n > int64(len(r.buf)) {
		n = int64(len(r.buf))
	}
	return r.buf[:n]
}

// write stores the spans as JSON lines under dir.
func (r *recorder) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("span dir: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("span file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("span file: %w", err)
	}
	return path, f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by the union of its children (children may overlap
// each other and may stick out of the parent; only the covered part of
// the parent's own interval is subtracted).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && int(s.Parent) < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	var iv [][2]int64
	for i, s := range spans {
		iv = iv[:0]
		for _, c := range children[i] {
			lo, hi := spans[c].Start, spans[c].End
			if lo < s.Start {
				lo = s.Start
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		self[i] = (s.End - s.Start) - unionLen(iv)
	}
	return self
}

// unionLen returns the total length covered by a set of intervals.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}
