package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"

	"consensus/internal/andxor"
	"consensus/internal/engine"
)

// The correctness gate compares the system's HTTP bodies with those of a
// single-process engine built here from the same inputs.  Reads of trees
// no write touches must match it byte for byte; trees that were written
// must match it after the acknowledged mutations are replayed in epoch
// order.

// reference is an in-process engine holding the instance's initial trees,
// answering through the same handler code the servers run.
type reference struct {
	h http.Handler
	e *engine.Engine
}

func newReference(in *instance) (*reference, error) {
	e := engine.New(engine.Options{})
	for i, name := range in.names {
		t, err := andxor.UnmarshalTree(in.docs[i])
		if err != nil {
			return nil, fmt.Errorf("decoding tree %s: %w", name, err)
		}
		if err := e.Register(name, t); err != nil {
			return nil, fmt.Errorf("registering %s on the reference: %w", name, err)
		}
	}
	return &reference{h: e.Handler(), e: e}, nil
}

func (r *reference) do(method, path string, body []byte) []byte {
	rec := httptest.NewRecorder()
	r.h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Body.Bytes()
}

// bodies answers every distinct read of the instance.
func (r *reference) bodies(in *instance) [][]byte {
	out := make([][]byte, len(in.bodies))
	for i, b := range in.bodies {
		out[i] = r.do(http.MethodPost, "/v1/query", b)
	}
	return out
}

// ack is one acknowledged mutation with the epoch its response carried.
type ack struct {
	epoch uint64
	req   engine.Request
}

// acks collects acknowledged mutations from concurrent senders.
type acks struct {
	mu   sync.Mutex
	list []ack
}

func (a *acks) add(req engine.Request, body []byte) error {
	var resp struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding mutation response: %w", err)
	}
	a.mu.Lock()
	a.list = append(a.list, ack{resp.Epoch, req})
	a.mu.Unlock()
	return nil
}

// replay applies the acknowledged mutations to the reference tree by
// tree in epoch order.  Each tree's epochs must run 1, 2, ... without a
// gap: a gap is a mutation the system applied but never acknowledged.
func (r *reference) replay(list []ack) error {
	sort.SliceStable(list, func(i, j int) bool {
		if list[i].req.Tree != list[j].req.Tree {
			return list[i].req.Tree < list[j].req.Tree
		}
		return list[i].epoch < list[j].epoch
	})
	next := map[string]uint64{}
	for _, a := range list {
		next[a.req.Tree]++
		if a.epoch != next[a.req.Tree] {
			return fmt.Errorf("tree %s: acknowledged epoch %d where %d was due", a.req.Tree, a.epoch, next[a.req.Tree])
		}
		if resp := r.e.Query(a.req); resp.Error != "" || resp.Epoch != a.epoch {
			return fmt.Errorf("tree %s: replaying epoch %d gave epoch %d, error %q", a.req.Tree, a.epoch, resp.Epoch, resp.Error)
		}
	}
	return nil
}

// finalCheck compares every tree's download and a fixed query set on it
// between the system and the reference.
func finalCheck(sys *system, ref *reference, in *instance) error {
	k := in.spec.ks[len(in.spec.ks)/2]
	for _, name := range in.names {
		path := "/v1/trees/" + name
		if err := same(sys, ref, http.MethodGet, path, nil); err != nil {
			return err
		}
		for _, q := range []engine.Request{
			{Tree: name, Op: engine.OpTopKMean, Metric: engine.MetricSymDiff, K: k},
			{Tree: name, Op: engine.OpRankDist, K: k},
			{Tree: name, Op: engine.OpSizeDist},
			{Tree: name, Op: engine.OpMedianWorld},
		} {
			body, err := json.Marshal(q)
			if err != nil {
				return err
			}
			if err := same(sys, ref, http.MethodPost, "/v1/query", body); err != nil {
				return err
			}
		}
	}
	return nil
}

func same(sys *system, ref *reference, method, path string, body []byte) error {
	status, got, err := sys.do(method, path, body, traceCtx{})
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("%s %s %s: status %d, %v", method, path, body, status, err)
	}
	if want := ref.do(method, path, body); !bytes.Equal(got, want) {
		return fmt.Errorf("%s %s %s: system answered %.200s, reference %.200s", method, path, body, got, want)
	}
	return nil
}
