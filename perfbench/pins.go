package main

// pinsFor returns the exact simulated outputs a repetition must
// reproduce, or nil when only invariants apply (a seeded workload on
// a seed other than defaultSeed). A change that only speeds up the
// simulator leaves every pin identical.
func pinsFor(w workload, seed uint64, small bool) map[string]uint64 {
	if w.seeded && seed != defaultSeed {
		return nil
	}
	return pins[pinKey{w.name, small}]
}

type pinKey struct {
	workload string
	small    bool
}

var pins = map[pinKey]map[string]uint64{
	{"paper16-flat", false}: {
		"spsolve/NI2w@memory/cycles": 51477, "spsolve/NI2w@memory/bus_occupancy": 741828, "spsolve/NI2w@memory/net.msg": 3322,
		"gauss/NI2w@memory/cycles": 3137480, "gauss/NI2w@memory/bus_occupancy": 44720900, "gauss/NI2w@memory/net.msg": 8670,
		"em3d/NI2w@memory/cycles": 102381, "em3d/NI2w@memory/bus_occupancy": 1358872, "em3d/NI2w@memory/net.msg": 3720,
		"moldyn/NI2w@memory/cycles": 637040, "moldyn/NI2w@memory/bus_occupancy": 9226692, "moldyn/NI2w@memory/net.msg": 7288,
		"appbt/NI2w@memory/cycles": 72150, "appbt/NI2w@memory/bus_occupancy": 993420, "appbt/NI2w@memory/net.msg": 1216,
		"spsolve/CNI16Qm@memory/cycles": 35574, "spsolve/CNI16Qm@memory/bus_occupancy": 492480, "spsolve/CNI16Qm@memory/net.msg": 3322,
		"gauss/CNI16Qm@memory/cycles": 1580045, "gauss/CNI16Qm@memory/bus_occupancy": 4738518, "gauss/CNI16Qm@memory/net.msg": 8670,
		"em3d/CNI16Qm@memory/cycles": 82896, "em3d/CNI16Qm@memory/bus_occupancy": 566034, "em3d/CNI16Qm@memory/net.msg": 3720,
		"moldyn/CNI16Qm@memory/cycles": 316946, "moldyn/CNI16Qm@memory/bus_occupancy": 4043550, "moldyn/CNI16Qm@memory/net.msg": 7288,
		"appbt/CNI16Qm@memory/cycles": 47821, "appbt/CNI16Qm@memory/bus_occupancy": 321516, "appbt/CNI16Qm@memory/net.msg": 1216,
	},
	{"paper16-flat", true}: {
		"spsolve/NI2w@memory/cycles": 51477, "spsolve/NI2w@memory/bus_occupancy": 741828, "spsolve/NI2w@memory/net.msg": 3322,
		"spsolve/CNI16Qm@memory/cycles": 35574, "spsolve/CNI16Qm@memory/bus_occupancy": 492480, "spsolve/CNI16Qm@memory/net.msg": 3322,
	},
	{"open1k-torus", false}: {
		"load/CNI16Q@memory+torus/sent": 10334, "load/CNI16Q@memory+torus/delivered": 8905, "load/CNI16Q@memory+torus/p99_cycles": 30500,
	},
	{"open1k-torus", true}: {
		"load/CNI16Q@memory+torus/sent": 57, "load/CNI16Q@memory+torus/delivered": 42, "load/CNI16Q@memory+torus/p99_cycles": 7680,
	},
	{"rpc16-lossy", false}: {
		"rpc/CNI512Q@memory+torus+faults+trace/issued":        623,
		"rpc/CNI512Q@memory+torus+faults+trace/completed":     599,
		"rpc/CNI512Q@memory+torus+faults+trace/retransmits":   275,
		"rpc/CNI512Q@memory+torus+faults+trace/p99_cycles":    81920,
		"rpc/CNI512Q@memory+torus+faults+trace/trace_records": 194729,
	},
	{"rpc16-lossy", true}: {
		"rpc/CNI512Q@memory+torus+faults+trace/issued":        71,
		"rpc/CNI512Q@memory+torus+faults+trace/completed":     49,
		"rpc/CNI512Q@memory+torus+faults+trace/retransmits":   63,
		"rpc/CNI512Q@memory+torus+faults+trace/p99_cycles":    61440,
		"rpc/CNI512Q@memory+torus+faults+trace/trace_records": 20032,
	},
}
