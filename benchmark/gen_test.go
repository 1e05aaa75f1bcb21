package main

import (
	"hash/fnv"
	"reflect"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/workload"
)

// hashRequests fingerprints a stream's wire bytes.
func hashRequests(reqs []*server.Request) (uint64, error) {
	bodies, err := encodeRequests(reqs)
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	for _, b := range bodies {
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return h.Sum64(), nil
}

func TestSameSeedSameInputs(t *testing.T) {
	mix := workload.DefaultSocialMix()
	stream := func(seed uint64) uint64 {
		h, err := hashRequests(wireStream(seed, mix, 8, 512, 3000))
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	if a, b := stream(42), stream(42); a != b {
		t.Errorf("seed 42 gave request hashes %x and %x", a, b)
	}
	if a, b := stream(42), stream(43); a == b {
		t.Errorf("seeds 42 and 43 gave the same request hash %x", a)
	}
	if a, b := arrivalsWithin(42, 1000, 3), arrivalsWithin(42, 1000, 3); !reflect.DeepEqual(a, b) {
		t.Error("seed 42 gave two different arrival schedules")
	}
	if a, b := arrivalsWithin(42, 1000, 3), arrivalsWithin(43, 1000, 3); reflect.DeepEqual(a, b) {
		t.Error("seeds 42 and 43 gave the same arrival schedule")
	}
}

func TestArrivalsFillThePhaseAtTheStatedRate(t *testing.T) {
	at := arrivalsWithin(7, 1000, 10)
	if n := len(at); n < 9_500 || n > 10_500 {
		t.Errorf("%d arrivals in 10 s at 1000/s", n)
	}
	for i := 1; i < len(at); i++ {
		if at[i] < at[i-1] {
			t.Fatalf("arrival %d precedes its predecessor", i)
		}
	}
	if last := at[len(at)-1]; last >= 10*time.Second {
		t.Errorf("last arrival at %v, past the phase", last)
	}
}

func TestClientsDrawDisjointKeys(t *testing.T) {
	const clients = 8
	owner := map[any]int{}
	for i, req := range wireStream(1, workload.DefaultSocialMix(), clients, 512, 4000) {
		c := i % clients
		for _, op := range req.Ops {
			for col, v := range op.S {
				if col == "post" { // post ids are per-author, not users
					continue
				}
				if prev, seen := owner[v]; seen && prev != c {
					t.Fatalf("user %v used by clients %d and %d", v, prev, c)
				}
				owner[v] = c
			}
		}
	}
}

func TestRowAndTuplePathsAgree(t *testing.T) {
	p := socialParams{seed: 3, keyspace: 64, mix: workload.DefaultSocialMix(), preload: 200, wireFormat: true}
	a, _, err := newSocialEnv(p)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := newSocialEnv(p)
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range wireStream(3, p.mix, 4, 16, 2000) {
		rows, err := a.comp.rows(req)
		if err != nil {
			t.Fatal(err)
		}
		tuples, err := b.comp.tuples(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := execRows(a.soc.Reg, rows, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := execTuples(b.soc.Reg, tuples)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("request %d: rows returned %v, tuples %v", i, got, want)
		}
	}
}
