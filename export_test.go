package filterjoin

// ConfigFingerprint exposes the plan-cache config fingerprint to the
// facade tests.
func (e *Engine) ConfigFingerprint() string { return e.configFingerprint() }
