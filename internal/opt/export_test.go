package opt

// Every optimization of the package's tests poisons its ordering
// scratch after each DP step (PoisonScratch), so a kept plan that holds
// scratch instead of its own copy shows a wrong ordering.
func init() { PoisonScratch = true }
