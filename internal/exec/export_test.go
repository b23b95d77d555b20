package exec

// Every scratch store of the package's tests poisons what it is given
// back (PoisonScratch).
func init() { PoisonScratch = true }
