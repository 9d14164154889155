package cluster

import (
	"fmt"

	"socflow/internal/simnet"
)

// Config describes a SoC-Cluster instance.
type Config struct {
	// NumSoCs is the number of SoCs participating (the paper uses 8-60).
	NumSoCs int
	// SoCsPerPCB is the PCB population (default 5, Fig. 2(b)).
	SoCsPerPCB int
	// Generation selects the SoC silicon (default Snapdragon 865).
	Generation SoCGeneration
}

func (c Config) withDefaults() Config {
	if c.SoCsPerPCB == 0 {
		c.SoCsPerPCB = SoCsPerPCBDefault
	}
	if c.Generation.Name == "" {
		c.Generation = Gen865
	}
	return c
}

// SoC is one mobile system-on-chip in the cluster.
type SoC struct {
	// ID is the cluster-wide index.
	ID int
	// PCB is the board this SoC is mounted on.
	PCB int
	// Throttle scales compute throughput in (0, 1]; the DVFS controller
	// lowers it when the chip underclocks (§4.1's underclocking-aware
	// rebalancing reacts to it).
	Throttle float64
}

// Cluster is the modeled server: SoCs, PCBs, and the simnet links
// between them.
type Cluster struct {
	Config Config
	SoCs   []*SoC
	// NumPCBs is the number of boards in use.
	NumPCBs int

	socUp, socDown []*simnet.Link // SoC <-> its PCB NIC
	pcbUp, pcbDown []*simnet.Link // PCB NIC <-> switch
	fabric         *simnet.Link   // switch fabric

	net simnet.Counters // what this cluster's network has simulated
}

// Simulate runs flows over the cluster's links (simnet.Simulate),
// charging them to the cluster's own counters as well as the process
// aggregate. The collective and planner pricing a run does on its
// cluster simulate through here, so NetStats is that run's own traffic.
func (c *Cluster) Simulate(flows []*simnet.Flow) float64 { return c.net.Simulate(flows) }

// NetStats reads the counters of everything simulated on the cluster.
func (c *Cluster) NetStats() simnet.Stats { return c.net.Stats() }

// New builds a cluster and its network topology.
func New(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	if cfg.NumSoCs <= 0 {
		panic("cluster: NumSoCs must be positive")
	}
	numPCBs := (cfg.NumSoCs + cfg.SoCsPerPCB - 1) / cfg.SoCsPerPCB
	c := &Cluster{
		Config:  cfg,
		NumPCBs: numPCBs,
		fabric:  simnet.NewLink("fabric", FabricBps, LinkLatencySec),
	}
	for i := 0; i < cfg.NumSoCs; i++ {
		c.SoCs = append(c.SoCs, &SoC{ID: i, PCB: i / cfg.SoCsPerPCB, Throttle: 1})
		c.socUp = append(c.socUp, simnet.NewLink(fmt.Sprintf("soc%d.up", i), SoCLinkBps, LinkLatencySec))
		c.socDown = append(c.socDown, simnet.NewLink(fmt.Sprintf("soc%d.down", i), SoCLinkBps, LinkLatencySec))
	}
	for p := 0; p < numPCBs; p++ {
		c.pcbUp = append(c.pcbUp, simnet.NewLink(fmt.Sprintf("pcb%d.up", p), PCBLinkBps, LinkLatencySec))
		c.pcbDown = append(c.pcbDown, simnet.NewLink(fmt.Sprintf("pcb%d.down", p), PCBLinkBps, LinkLatencySec))
	}
	return c
}

// PCBOf returns the PCB index hosting the given SoC.
func (c *Cluster) PCBOf(soc int) int { return c.SoCs[soc].PCB }

// SamePCB reports whether two SoCs share a board.
func (c *Cluster) SamePCB(a, b int) bool { return c.PCBOf(a) == c.PCBOf(b) }

// Path returns the link path a transfer from SoC src to SoC dst
// traverses. Intra-PCB traffic crosses only the two SoC links; inter-PCB
// traffic additionally crosses both PCB uplinks and the switch fabric —
// this is the paper's central bottleneck (§2.3, Observation #2).
func (c *Cluster) Path(src, dst int) []*simnet.Link {
	return c.AppendPath(nil, src, dst)
}

// AppendPath appends Path(src, dst) to buf, so a collective can lay all
// its flows' paths out in one allocation.
func (c *Cluster) AppendPath(buf []*simnet.Link, src, dst int) []*simnet.Link {
	if src == dst {
		return buf // on-chip
	}
	if c.SamePCB(src, dst) {
		return append(buf, c.socUp[src], c.socDown[dst])
	}
	return append(buf,
		c.socUp[src],
		c.pcbUp[c.PCBOf(src)],
		c.fabric,
		c.pcbDown[c.PCBOf(dst)],
		c.socDown[dst],
	)
}

// Flow builds a simnet flow for a src->dst transfer of the given size
// starting at startAt.
func (c *Cluster) Flow(name string, src, dst int, bytes float64, startAt float64) *simnet.Flow {
	return &simnet.Flow{Name: name, Path: c.Path(src, dst), Bytes: bytes, StartAt: startAt}
}

// SetThrottle sets a SoC's DVFS throttle factor (1 = full speed).
func (c *Cluster) SetThrottle(soc int, f float64) {
	if f <= 0 || f > 1 {
		panic(fmt.Sprintf("cluster: throttle %v out of (0,1]", f))
	}
	c.SoCs[soc].Throttle = f
}
