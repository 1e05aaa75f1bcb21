package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/graphreps"
	"repro/internal/locks"
	"repro/internal/rel"
	"repro/internal/workload"
)

// roundTripCase is one registry the snapshot round trip must carry
// unchanged: build returns it fresh and empty, fill writes its state
// through ordinary batches.
type roundTripCase struct {
	name  string
	build func(t *testing.T) *core.Registry
	fill  func(t *testing.T, reg *core.Registry)
}

// membershipSpec is membership(group, id, name) with id and name
// determining each other: no column is free of FDs but group, yet group
// alone is no key.
func membershipSpec() rel.Spec {
	return rel.MustSpec([]string{"group", "id", "name"},
		rel.FD{From: []string{"id"}, To: []string{"name"}},
		rel.FD{From: []string{"name"}, To: []string{"id"}})
}

// singleRelation returns a builder of a registry holding one relation.
func singleRelation(name string, spec rel.Spec, mk func() (*decomp.Decomposition, *locks.Placement, error)) func(t *testing.T) *core.Registry {
	return func(t *testing.T) *core.Registry {
		t.Helper()
		d, p, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		reg := core.NewRegistry()
		if _, err := reg.Synthesize(name, spec, core.WithDecomposition(d), core.WithPlacement(p)); err != nil {
			t.Fatal(err)
		}
		return reg
	}
}

// insertAll inserts each s/t pair into the registry's only relation, one
// batch per pair, and fails the test if any insert is refused.
func insertAll(t *testing.T, reg *core.Registry, pairs [][2]rel.Tuple) {
	t.Helper()
	r := reg.Relations()[0]
	for _, st := range pairs {
		var ok *core.Pending[bool]
		err := reg.Batch(func(tx *core.Txn) error {
			var err error
			ok, err = tx.InsertInto(r, st[0], st[1])
			return err
		})
		if err != nil || !ok.Value() {
			t.Fatalf("insert %v %v: applied=%v err=%v", st[0], st[1], err == nil && ok.Value(), err)
		}
	}
}

func roundTripCases() []roundTripCase {
	return []roundTripCase{
		{
			name:  "social",
			build: func(*testing.T) *core.Registry { return workload.MustSocial().Reg },
			fill: func(t *testing.T, reg *core.Registry) {
				soc := &workload.Social{Reg: reg, Users: reg.RelationByName("users"),
					Posts: reg.RelationByName("posts"), Follows: reg.RelationByName("follows")}
				for i := 0; i < 40; i++ {
					if err := socialBatch(t, soc, i); err != nil {
						t.Fatalf("batch %d: %v", i, err)
					}
				}
			},
		},
		{
			name: "graph Split 4",
			build: singleRelation("graph", graphreps.Spec(), func() (*decomp.Decomposition, *locks.Placement, error) {
				side := graphreps.Side{Scheme: graphreps.Striped, Top: container.ConcurrentHashMap, Mid: container.TreeMap}
				return graphreps.Representation("split", side, side)
			}),
			fill: func(t *testing.T, reg *core.Registry) {
				var pairs [][2]rel.Tuple
				seen := map[[2]int64]bool{}
				for i := 0; i < 60; i++ {
					key := [2]int64{int64(i % 7), int64((i * 5) % 11)}
					if !seen[key] {
						seen[key] = true
						pairs = append(pairs, [2]rel.Tuple{rel.T("src", key[0], "dst", key[1]), rel.T("weight", int64(i))})
					}
				}
				insertAll(t, reg, pairs)
			},
		},
		{
			name: "membership id <-> name",
			build: singleRelation("membership", membershipSpec(), func() (*decomp.Decomposition, *locks.Placement, error) {
				d, err := decomp.NewBuilder(membershipSpec(), "ρ").
					Edge("ρu", "ρ", "u", []string{"group"}, container.ConcurrentHashMap).
					Edge("uv", "u", "v", []string{"id"}, container.TreeMap).
					Edge("vw", "v", "w", []string{"name"}, container.Cell).
					Build()
				if err != nil {
					return nil, nil, err
				}
				return d, locks.NewPlacement(d), nil
			}),
			fill: func(t *testing.T, reg *core.Registry) {
				insertAll(t, reg, [][2]rel.Tuple{
					{rel.T("group", int64(1), "id", int64(1)), rel.T("name", "ann")},
					{rel.T("group", int64(1), "id", int64(2)), rel.T("name", "bob")},
					{rel.T("group", int64(1), "id", int64(3)), rel.T("name", "cyd")},
					{rel.T("group", int64(2), "id", int64(4)), rel.T("name", "dee")},
				})
			},
		},
	}
}

// relationStates renders every relation's Snapshot() as sorted tuple
// strings, keyed by relation name — independent of the snapshot codec
// under test.
func relationStates(t *testing.T, reg *core.Registry) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	for _, r := range reg.Relations() {
		tuples, err := r.Snapshot()
		if err != nil {
			t.Fatalf("%s: Snapshot: %v", r.Name(), err)
		}
		rows := make([]string, len(tuples))
		for i, tu := range tuples {
			rows[i] = tu.String()
		}
		sort.Strings(rows)
		out[r.Name()] = rows
	}
	return out
}

// requireSameStates fails unless both registries hold the same tuples.
func requireSameStates(t *testing.T, what string, want, got map[string][]string) {
	t.Helper()
	for name, w := range want {
		g := got[name]
		if fmt.Sprint(w) != fmt.Sprint(g) {
			t.Fatalf("%s: relation %q: %d tuples restored, want %d\ngot:  %v\nwant: %v", what, name, len(g), len(w), g, w)
		}
	}
}

// TestSnapshotRoundTrip carries each registry through dumpRegistry →
// encodeSnapshot → decodeSnapshot → restoreSnapshot, and through Open
// over a directory whose log a snapshot pruned: every restored relation
// must hold exactly the source's tuples. The membership case pins that a
// restore keys its inserts on the full row — its FD-free columns
// ({group}) are not a key, and keying on them dropped group members.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, tc := range roundTripCases() {
		t.Run(tc.name, func(t *testing.T) {
			src := tc.build(t)
			tc.fill(t, src)
			want := relationStates(t, src)

			dumps, err := dumpRegistry(src)
			if err != nil {
				t.Fatalf("dumpRegistry: %v", err)
			}
			img, err := encodeSnapshot(7, dumps)
			if err != nil {
				t.Fatalf("encodeSnapshot: %v", err)
			}
			seal, decoded, err := decodeSnapshot(img)
			if err != nil || seal != 7 {
				t.Fatalf("decodeSnapshot: seal %d, %v", seal, err)
			}
			restored := tc.build(t)
			if err := restoreSnapshot(restored, decoded); err != nil {
				t.Fatalf("restoreSnapshot: %v", err)
			}
			requireSameStates(t, "restoreSnapshot", want, relationStates(t, restored))

			// The same state written through the log, snapshotted (which
			// prunes every sealed segment) and recovered by Open.
			dir := t.TempDir()
			logged := tc.build(t)
			m, err := Open(dir, logged, Options{})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			logged.SetCommitLogger(m)
			tc.fill(t, logged)
			if err := m.Snapshot(); err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			if err := m.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if segs, _ := listSegments(dir); len(segs) != 1 {
				t.Fatalf("snapshot left %d segments, want only the fresh active one", len(segs))
			}
			recovered := tc.build(t)
			rm, err := Open(dir, recovered, Options{})
			if err != nil {
				t.Fatalf("recovery Open: %v", err)
			}
			defer rm.Close()
			if rm.Stats().RecoveredBatches != 0 {
				t.Fatalf("recovery replayed %d records past the snapshot, want 0", rm.Stats().RecoveredBatches)
			}
			requireSameStates(t, "Open over a pruned log", want, relationStates(t, recovered))
		})
	}
}

// craftImage frames a raw payload as a snapshot image sealed at LSN 5,
// with a valid length and CRC.
func craftImage(payload []byte) []byte {
	img := append([]byte(snapMagic), make([]byte, 16)...)
	binary.LittleEndian.PutUint64(img[8:16], 5)
	return reseal(append(img, payload...))
}

// reseal rewrites an image's payload length and CRC to match its
// payload, so the decoder's parser — not the checksum — meets the bytes.
func reseal(img []byte) []byte {
	binary.LittleEndian.PutUint32(img[16:20], uint32(len(img)-24))
	crc := crc32.Update(crc32.Checksum(img[8:20], crcTable), crcTable, img[24:])
	binary.LittleEndian.PutUint32(img[20:24], crc)
	return img
}

// hugeCountImages are CRC-valid images whose counts claim far more
// relations or rows than their payload can hold.
func hugeCountImages() map[string][]byte {
	rels := binary.AppendUvarint(nil, 1<<62)
	rows := appendString(binary.AppendUvarint(nil, 1), "users")
	rows = appendString(binary.AppendUvarint(rows, 1), "user")
	rows = binary.AppendUvarint(rows, 1<<62)
	noCols := appendString(binary.AppendUvarint(nil, 1), "users")
	noCols = binary.AppendUvarint(binary.AppendUvarint(noCols, 0), 1<<62)
	return map[string][]byte{
		"2^62 relations":          craftImage(rels),
		"2^62 rows":               craftImage(rows),
		"zero columns, 2^62 rows": craftImage(noCols),
	}
}

// TestSnapshotCountsBounded feeds recovery CRC-valid snapshots whose
// relation or row counts exceed their payload, beside a log pruned past
// them: Open must refuse the directory with an error, not panic
// allocating the claimed counts.
func TestSnapshotCountsBounded(t *testing.T) {
	for name, img := range hugeCountImages() {
		t.Run(name, func(t *testing.T) {
			if _, _, err := decodeSnapshot(img); err == nil {
				t.Fatal("decodeSnapshot accepted the image")
			}
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, snapName(5)), img, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, segName(6)), writeSegHeader(nil, 6), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(dir, workload.MustSocial().Reg, Options{}); err == nil {
				t.Fatal("Open recovered past an undecodable snapshot with a pruned log")
			}
		})
	}
}

// FuzzSnapshot holds the snapshot decoder to its contract on arbitrary
// payloads (the fuzz input is resealed, so the CRC never masks the
// parser): decoding either fails with an error, or its dumps re-encode
// to an image that decodes and re-encodes to itself. Seeds: a real
// social image and the huge-count images.
func FuzzSnapshot(f *testing.F) {
	soc := workload.MustSocial()
	for i := 0; i < 12; i++ {
		if err := socialBatch(f, soc, i); err != nil {
			f.Fatal(err)
		}
	}
	dumps, err := dumpRegistry(soc.Reg)
	if err != nil {
		f.Fatal(err)
	}
	socialImg, err := encodeSnapshot(9, dumps)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(socialImg)
	for _, img := range hugeCountImages() {
		f.Add(img)
	}
	f.Fuzz(func(t *testing.T, img []byte) {
		if len(img) >= 24 {
			img = reseal(append([]byte(nil), img...))
		}
		seal, dumps, err := decodeSnapshot(img)
		if err != nil {
			return
		}
		once, err := encodeSnapshot(seal, dumps)
		if err != nil {
			t.Fatalf("re-encoding decoded dumps: %v", err)
		}
		seal2, dumps2, err := decodeSnapshot(once)
		if err != nil || seal2 != seal {
			t.Fatalf("re-encoded image does not decode: seal %d/%d, %v", seal2, seal, err)
		}
		twice, err := encodeSnapshot(seal2, dumps2)
		if err != nil || !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding is not a fixed point (err %v)", err)
		}
	})
}

// TestSnapshotDumpDuringMigrate races registry dumps against writers and
// back-to-back migrations. The dump prepares its full-scan handles before
// its read-only batch: preparing takes the representation latch shared,
// which the batch already holds, and a second shared hold on one
// goroutine deadlocks once a migration waits to take the latch
// exclusive.
func TestSnapshotDumpDuringMigrate(t *testing.T) {
	soc := workload.MustSocial()
	stop := make(chan struct{})
	errs := make(chan error, 3)
	var wg sync.WaitGroup
	loop := func(step func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := step(i); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	loop(func(i int) error { return socialBatch(t, soc, i) })
	loop(func(int) error { _, err := dumpRegistry(soc.Reg); return err })
	loop(func(i int) error {
		r := soc.Reg.Relations()[i%3]
		_, err := soc.Reg.Migrate(r.Name(), core.WithDecomposition(r.Decomposition()))
		return err
	})
	time.Sleep(2 * time.Second)
	close(stop)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("dumps, writers and migrations deadlocked")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
