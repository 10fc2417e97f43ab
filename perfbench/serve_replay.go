package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"adawave/internal/api"
	"adawave/internal/core"
	"adawave/internal/persist"
	"adawave/internal/pointset"
)

// replayServe is the in-process half of a traced serve-sliding-window run:
// the timed loop's operation sequence replayed on the primary's path
// without the network — JSON decode (internal/api DTOs), the session
// mutation (core.Session), the write-ahead log append under -wal-sync
// always (internal/persist), and for reads the fold and the JSON encode —
// with one span per layer call. It stops when the client phase's length
// has passed again, and checks the replayed session's labels against a
// one-shot clustering of its window.
func replayServe(ctx context.Context, env *runEnv, out *outcome, tr *tracer, src *rowSource, ops []opKind, client map[string]pct) error {
	sess, err := core.NewSession(core.DefaultConfig(), 0)
	if err != nil {
		return err
	}
	wal, err := persist.OpenWAL(filepath.Join(env.dir, "replay.wal"), persist.SyncAlways)
	if err != nil {
		return err
	}
	defer wal.Close()
	for off := 0; off < windowRows; off += seedChunk {
		ds, err := pointset.FromSlices(src.slice(off, seedChunk))
		if err != nil {
			return err
		}
		if err := sess.Append(ds); err != nil {
			return err
		}
		if _, err := wal.AppendBatch(ds); err != nil {
			return err
		}
	}
	if _, err := sess.Result(); err != nil {
		return err
	}

	removeBody, err := json.Marshal(api.RemoveRequest{Indices: removeHead})
	if err != nil {
		return err
	}
	var (
		steps      int
		walBytes   []float64
		labelBytes []float64
		opID       = int64(1 << 40) // apart from the client spans' ids
	)
	deadline := time.Now().Add(env.seconds / 2)
	for _, kind := range ops {
		if time.Now().After(deadline) && kind == opAppend {
			break
		}
		opID++
		switch kind {
		case opAppend:
			body, err := json.Marshal(api.AppendRequest{Points: src.slice(stepRows*steps+windowRows, stepRows)})
			if err != nil {
				return err
			}
			root := tr.begin("replay.append", opID, -1)
			s := tr.begin("api.decode_append", opID, root)
			var req api.AppendRequest
			err = json.NewDecoder(bytes.NewReader(body)).Decode(&req)
			var ds *pointset.Dataset
			if err == nil {
				ds, err = pointset.FromSlices(req.Points)
			}
			tr.end(s)
			if err == nil {
				s = tr.begin("core.session_append", opID, root)
				err = sess.Append(ds)
				tr.end(s)
			}
			if err == nil {
				size := wal.Size()
				s = tr.begin("persist.wal_append", opID, root)
				_, err = wal.AppendBatch(ds)
				tr.end(s)
				walBytes = append(walBytes, float64(wal.Size()-size))
			}
			tr.end(root)
			if err != nil {
				return fmt.Errorf("replay append: %w", err)
			}
		case opRemove:
			root := tr.begin("replay.remove", opID, -1)
			s := tr.begin("api.decode_remove", opID, root)
			var req api.RemoveRequest
			err := json.NewDecoder(bytes.NewReader(removeBody)).Decode(&req)
			tr.end(s)
			if err == nil {
				s = tr.begin("core.session_remove", opID, root)
				err = sess.Remove(req.Indices)
				tr.end(s)
			}
			if err == nil {
				size := wal.Size()
				s = tr.begin("persist.wal_remove", opID, root)
				_, err = wal.AppendRemove(req.Indices)
				tr.end(s)
				walBytes = append(walBytes, float64(wal.Size()-size))
			}
			tr.end(root)
			if err != nil {
				return fmt.Errorf("replay remove: %w", err)
			}
			steps++
		case opLabels:
			root := tr.begin("replay.labels", opID, -1)
			s := tr.begin("core.fold", opID, root)
			res, err := sess.Result()
			tr.end(s)
			if err == nil {
				s = tr.begin("api.encode_labels", opID, root)
				var b []byte
				b, err = json.Marshal(api.Result{
					Labels: res.Labels, NumClusters: res.NumClusters, Noise: res.NoiseCount(),
					Threshold: res.Threshold, Levels: res.Levels, Scale: res.Scale,
					CellsQuantized: res.CellsQuantized, CellsTransformed: res.CellsTransformed, CellsKept: res.CellsKept,
				})
				tr.end(s)
				labelBytes = append(labelBytes, float64(len(b)))
			}
			tr.end(root)
			if err != nil {
				return fmt.Errorf("replay labels: %w", err)
			}
		}
	}

	self := tr.selfMs()
	for _, name := range []string{"api.decode_append", "core.session_append", "persist.wal_append",
		"core.session_remove", "persist.wal_remove", "core.fold", "api.encode_labels"} {
		if v, ok := self[name]; ok {
			out.setMetric(name+"_ms", median(v))
		}
	}
	out.setMetric("persist.wal_bytes_per_write", mean(walBytes))
	out.setMetric("api.labels_bytes", median(labelBytes))
	cells, err := sess.Cells()
	if err != nil {
		return err
	}
	out.setMetric("core.cells_live", float64(cells))
	out.named["replay.steps"] = steps

	// How much of the client-observed write step the in-process layers
	// account for; the rest is HTTP, the router hop and replication.
	total := tr.totalMs()
	inProcess := median(total["replay.append"]) + median(total["replay.remove"])
	clientStep := client["append_p50_ms"].Ms + client["remove_p50_ms"].Ms
	out.setMetric("trace.coverage_pct", 100*inProcess/clientStep)

	labels, err := sess.Labels()
	if err != nil {
		return err
	}
	want, err := oneShot(ctx, src.slice(stepRows*steps, windowRows))
	if err != nil {
		return err
	}
	out.check("replayed labels equal a one-shot clustering of the window", equalLabels(want, labels))
	return nil
}
