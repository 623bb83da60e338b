package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"omegasm"
)

// errValueSpace means a key ran out of monotone values in one run.
var errValueSpace = errors.New("per-key value space exhausted")

// keyModel makes every check exact: each key has a single writer at a
// time (a per-key lock), and the writer stores strictly increasing values
// 1, 2, 3, ... So a key's committed value can never be older than the
// newest acknowledged Put, and can never be newer than the newest issued
// one.
type keyModel struct {
	lock   []chan struct{} // per-key writer lock, taken with a deadline
	issued []atomic.Uint32 // newest value handed to a Put
	acked  []atomic.Uint32 // newest value whose Put returned nil
}

func newKeyModel(keys int) *keyModel {
	m := &keyModel{
		lock:   make([]chan struct{}, keys),
		issued: make([]atomic.Uint32, keys),
		acked:  make([]atomic.Uint32, keys),
	}
	for i := range m.lock {
		m.lock[i] = make(chan struct{}, 1)
	}
	return m
}

// put writes the key's next value through put, holding the key's writer
// lock; ctx bounds both the wait for the lock and the Put.
func (m *keyModel) put(ctx context.Context, key uint16, put func(ctx context.Context, key, val uint16) error) error {
	select {
	case m.lock[key] <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-m.lock[key] }()
	v := m.issued[key].Load() + 1
	if v > 0xFFFF {
		return errValueSpace
	}
	m.issued[key].Store(v)
	if err := put(ctx, key, uint16(v)); err != nil {
		return err
	}
	m.acked[key].Store(v)
	return nil
}

// readFloor returns the value every read that begins now must at least
// return (0: nothing acknowledged yet).
func (m *keyModel) readFloor(key uint16) uint32 { return m.acked[key].Load() }

// checkRead validates a read that began when the floor was floor: it must
// not be older than that acknowledged Put, and must not return a value no
// Put ever wrote.
func (m *keyModel) checkRead(key uint16, floor uint32, v uint16, ok bool) error {
	switch {
	case floor > 0 && !ok:
		return fmt.Errorf("key %d: read found no value after value %d was acknowledged", key, floor)
	case ok && uint32(v) < floor:
		return fmt.Errorf("key %d: read returned %d, older than acknowledged %d", key, v, floor)
	case ok && uint32(v) > m.issued[key].Load():
		return fmt.Errorf("key %d: read returned %d, never written (newest issued %d)", key, v, m.issued[key].Load())
	}
	return nil
}

// readbackWait bounds each timed ReadLease pass and each linearizable
// readback read.
const readbackWait = 250 * time.Millisecond

// readback checks every written key against the model: passes timed
// ReadLease passes over the written keys, then one ReadQuorum read per
// key — no acknowledged Put may be lost. It returns each pass's mean time
// per ReadLease read (a pass is timed as a whole: a single read takes
// about as long as reading the clock) and how many linearizable reads did
// not answer within readbackWait. After the first such read the store is
// treated as unable to serve that mode: the rest of its ReadLease reads
// are counted unanswered without waiting, and durability is checked on
// the freshest replica's applied state (ReadFreshest) instead of through
// ReadQuorum.
func (m *keyModel) readback(kv func(key uint16) *omegasm.KV, passes int, rep *report) (perRead []time.Duration, unanswered int) {
	var keys []uint16
	for k := range m.issued {
		if m.issued[k].Load() != 0 {
			keys = append(keys, uint16(k))
		}
	}
	vals, oks := make([]uint16, len(keys)), make([]bool, len(keys))
	for p := 0; p < passes && len(keys) > 0; p++ {
		ctx, cancel := context.WithTimeout(context.Background(), readbackWait)
		var err error
		n := 0
		t0 := time.Now()
		for ; n < len(keys) && err == nil; n++ {
			vals[n], oks[n], err = kv(keys[n]).Read(ctx, keys[n], omegasm.ReadLease)
		}
		d := time.Since(t0)
		cancel()
		if err != nil {
			n--
		}
		for j := 0; j < n; j++ {
			if cerr := m.checkRead(keys[j], m.readFloor(keys[j]), vals[j], oks[j]); cerr != nil {
				rep.violation("readback ReadLease: %v", cerr)
			}
		}
		if errors.Is(err, context.DeadlineExceeded) {
			unanswered += (passes-p)*len(keys) - n
			break
		}
		if err != nil {
			rep.violation("readback ReadLease key %d: %v", keys[n], err)
			continue
		}
		perRead = append(perRead, d/time.Duration(len(keys)))
	}
	quorumOK := true
	for _, key := range keys {
		mode := "ReadQuorum"
		var v uint16
		var ok bool
		if quorumOK {
			ctx, cancel := context.WithTimeout(context.Background(), readbackWait)
			var err error
			v, ok, err = kv(key).Read(ctx, key, omegasm.ReadQuorum)
			cancel()
			if errors.Is(err, context.DeadlineExceeded) {
				quorumOK = false
				unanswered++
			} else if err != nil {
				rep.violation("readback ReadQuorum key %d: %v", key, err)
				continue
			}
		}
		if !quorumOK {
			mode = "ReadFreshest"
			v, ok = kv(key).Get(key)
		}
		if err := m.checkRead(key, m.readFloor(key), v, ok); err != nil {
			rep.violation("lost acknowledged write (%s readback): %v", mode, err)
		}
	}
	return perRead, unanswered
}

// checkLog collects check failures from concurrent requests.
type checkLog struct {
	mu   sync.Mutex
	list []error
}

func (c *checkLog) add(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.list = append(c.list, err)
}

func (c *checkLog) errs() []error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]error(nil), c.list...)
}
