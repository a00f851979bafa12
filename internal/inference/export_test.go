package inference

// ResetAudits clears the audit ring (tests).
func ResetAudits() {
	auditRing.mu.Lock()
	auditRing.next = 0
	auditRing.entries = [auditRingCap]AuditEntry{}
	auditRing.mu.Unlock()
}
