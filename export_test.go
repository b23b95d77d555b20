package filterjoin

import (
	"filterjoin/internal/dist"
	"filterjoin/internal/exec"
	"filterjoin/internal/opt"
)

// Every engine of the package's tests poisons what its scratch store is
// given back (exec.PoisonScratch), and every optimization its ordering
// scratch after each DP step (opt.PoisonScratch).
func init() { exec.PoisonScratch, opt.PoisonScratch = true, true }

// ConfigFingerprint exposes the plan-cache config fingerprint to the
// facade tests.
func (e *Engine) ConfigFingerprint() string { return e.configFingerprint() }

// SetChaos swaps the fault schedule db's later executions run under
// (nil: the free network), so a test can fault one statement and run
// the next clean on the same engine.
func (db *DB) SetChaos(c *dist.ChaosConfig, p dist.RetryPolicy) {
	db.eng.chaos, db.eng.retry = c, p
}

// SetBatchSize sets the executor morsel size db's later plans record and
// executions run at (default exec.DefaultBatchSize).
func (db *DB) SetBatchSize(n int) { db.eng.proto.BatchSize = n }
