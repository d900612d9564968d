package cluster

// PoolWorkers reports how many lanes c's next stage steps its channels
// on, on a host with procs scheduler cores (0 means the channels step
// inline).
func PoolWorkers(c *Cluster, procs int) int {
	if w := c.backend.(*distBackend).rt.Lanes(procs); w > 1 {
		return w
	}
	return 0
}

// CrossCheck is crossCheck for the external tests.
var CrossCheck = crossCheck
