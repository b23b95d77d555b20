package core

import (
	"filterjoin/internal/exec"
	"filterjoin/internal/schema"
)

// Every scratch store of the package's tests poisons what it is given
// back (exec.PoisonScratch).
func init() { exec.PoisonScratch = true }

// EmittedSchema returns the schema of the operator that produces an
// opened Filter Join's rows: the final join Open assembled. op is a
// FilterJoin plan node's operator, instrumented or not.
func EmittedSchema(op exec.Operator) *schema.Schema {
	if in, ok := op.(*exec.Instrumented); ok {
		op = in.Unwrap()
	}
	return op.(*filterJoinOp).final.Schema()
}
