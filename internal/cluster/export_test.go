package cluster

// PoolWorkers reports how many lanes the memory backend steps c's next
// stage on, on a host with procs scheduler cores (0 means the channels
// step inline).
func PoolWorkers(c *Cluster, procs int) int {
	b := c.backend.(*memBackend)
	saved := b.gate.Procs
	b.gate.Procs = procs
	defer func() { b.gate.Procs = saved }()
	if w := b.width(); w > 1 {
		return w
	}
	return 0
}
