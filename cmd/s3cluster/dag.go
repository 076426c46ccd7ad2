// DAG-stage materialization for the cluster daemon: when a finished
// job has dependents, its reduce output becomes a real replicated file
// — written into the master's planning store, installed on every live
// worker over RPC, journaled, and registered with the scheduler so the
// dependents' scans join the circular pass like any other jobs'.
package main

import (
	"fmt"

	"s3sched/internal/core"
	"s3sched/internal/dfs"
	"s3sched/internal/journal"
	"s3sched/internal/mapreduce"
	"s3sched/internal/remote"
	"s3sched/internal/scheduler"
	"s3sched/internal/workload"
)

// materializeStage turns job id's committed reduce output into the
// derived file its consumers scan. Steps, in crash-safe order:
//
//  1. serialize the output into the planning store (idempotent: a file
//     already present — a recovery replay — is reused);
//  2. push the blocks to every live worker (InstallFile is idempotent
//     worker-side; a worker registering later gets the file replayed
//     during its handshake);
//  3. journal a stage-materialized record so a restart re-installs the
//     file before resuming consumers;
//  4. register the segment plan with the scheduler so consumers can be
//     submitted against the new file.
//
// It runs on the engine goroutine between rounds (LiveDAG calls it from
// JobFinished or Pop), which is the only time MultiFile.AddPlan is
// legal.
func materializeStage(master *remote.Master, sched *core.MultiFile, planStore *dfs.Store, jnl *journal.Journal, segBlocks int, id scheduler.JobID) error {
	name := workload.DerivedFileName(id)
	file, err := planStore.File(name)
	if err != nil {
		out, ok := master.JobOutput(id)
		if !ok {
			return fmt.Errorf("job %d has no committed result to materialize", id)
		}
		file, err = mapreduce.StoreResult(planStore, name, *blockSize, &mapreduce.Result{Output: out})
		if err != nil {
			return fmt.Errorf("storing %s: %w", name, err)
		}
	}
	blocks := make([][]byte, file.NumBlocks)
	for i := range blocks {
		b, err := planStore.ReadBlock(dfs.BlockID{File: name, Index: i})
		if err != nil {
			return fmt.Errorf("reading %s block %d: %w", name, i, err)
		}
		blocks[i] = b
	}
	if err := master.InstallFile(name, file.BlockSize, blocks); err != nil {
		return fmt.Errorf("installing %s: %w", name, err)
	}
	if jnl != nil {
		rec := journal.StageMaterializedRecord{Job: id, File: name, BlockSize: file.BlockSize, Blocks: file.NumBlocks}
		if err := jnl.AppendRecord(journal.KindStageMaterialized, rec); err != nil {
			return fmt.Errorf("journaling materialization of %s: %w", name, err)
		}
	}
	if _, ok := sched.Queue(name); ok {
		// The plan survived in-process (a consumer re-submission after
		// the producer re-materialized); nothing left to do.
		return nil
	}
	plan, err := dfs.PlanSegments(file, segBlocks)
	if err != nil {
		return err
	}
	return sched.AddPlan(plan, 1)
}
