package runtime

// Epoch runs one controller tick at the substrate's current time — what
// the controller's epoch timer fires.
func (c *Controller) Epoch() { c.epoch(c.deps.Cluster.Now()) }

// Regauge begins a staleness re-gauge now, as a tick whose plan aged
// past StaleAfterS would; the swap lands one probe window later.
func (c *Controller) Regauge() {
	c.beginRegauge(c.deps.Cluster.Now(), ReasonStale, 0, 0, nil)
}
