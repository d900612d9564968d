package cluster

// PoolWorkers reports how many workers the memory backend's channel pool
// runs for c's next stage on a host with procs scheduler cores (0 means
// the channels step inline).
func PoolWorkers(c *Cluster, procs int) int {
	b := c.backend.(*memBackend)
	saved := b.procs
	b.procs = procs
	defer func() { b.procs = saved }()
	return b.poolWorkers()
}
