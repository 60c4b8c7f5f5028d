package workload

import (
	"encoding/json"
	"io"
)

// WriteDevicesJSON serializes a device population.
func WriteDevicesJSON(w io.Writer, devices []Device) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(devices)
}
