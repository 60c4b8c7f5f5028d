package workload

import (
	"bytes"
	"testing"

	"taccc/internal/jsonx"
)

func TestPresetsGenerate(t *testing.T) {
	for name, p := range Profiles(3) {
		devs, err := Generate(50, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(devs) != 50 {
			t.Fatalf("%s: %d devices", name, len(devs))
		}
		if TotalLoad(devs) <= 0 {
			t.Fatalf("%s: non-positive total load", name)
		}
	}
}

func TestPresetsDiffer(t *testing.T) {
	factory, err := Generate(100, FactoryProfile(1))
	if err != nil {
		t.Fatal(err)
	}
	wearables, err := Generate(100, WearablesProfile(1))
	if err != nil {
		t.Fatal(err)
	}
	// Factory telemetry is far heavier than wearables.
	if TotalLoad(factory) < 5*TotalLoad(wearables) {
		t.Fatalf("factory load %v should dwarf wearables %v",
			TotalLoad(factory), TotalLoad(wearables))
	}
}

func TestDevicesJSONRoundTrip(t *testing.T) {
	devs, err := Generate(20, SmartCityProfile(5))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteDevicesJSON(&buf, devs); err != nil {
		t.Fatal(err)
	}
	var got []Device
	if err := jsonx.Decode(&buf, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(devs) {
		t.Fatalf("round trip length %d", len(got))
	}
	for i := range devs {
		if got[i] != devs[i] {
			t.Fatalf("device %d mismatch: %+v vs %+v", i, got[i], devs[i])
		}
	}
}
