package obsv

// bind exposes an instrument the golden test owns on reg, through the
// registry's binding API for owned instruments and func-backed series.
func bind(reg *Registry, name, help string, m any) {
	switch m := m.(type) {
	case func() float64:
		reg.Register(name, help, GaugeFunc(m))
	case func() uint64:
		reg.Register(name, help, CounterFunc(m))
	default:
		reg.Register(name, help, m.(Metric))
	}
}
