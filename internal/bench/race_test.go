//go:build race

package bench

func init() { raceBuild = true }
