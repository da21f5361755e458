//! The sequential model container.

use procrustes_tensor::{Scratch, Tensor};

use crate::{Layer, ParamTensor};

/// A chain of layers applied in order; itself a [`Layer`], so blocks nest.
///
/// # Examples
///
/// ```
/// use procrustes_nn::{Conv2d, Layer, ReLU, Sequential};
/// use procrustes_prng::Xorshift64;
/// use procrustes_tensor::Tensor;
///
/// let mut rng = Xorshift64::new(0);
/// let mut model = Sequential::new();
/// model.push(Conv2d::new(3, 4, 3, 1, 1, false, &mut rng));
/// model.push(ReLU::new());
/// let y = model.forward(&Tensor::ones(&[1, 3, 8, 8]), true);
/// assert_eq!(y.shape().dims(), &[1, 4, 8, 8]);
/// ```
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty container.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a layer (builder-style: returns `&mut self` for chaining).
    pub fn push(&mut self, layer: impl Layer + 'static) -> &mut Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True if the container has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Total prunable parameter count (conv/fc weights).
    pub fn prunable_params(&mut self) -> usize {
        let mut count = 0;
        self.visit_params(&mut |p| {
            if p.kind == crate::ParamKind::Prunable {
                count += p.values.len();
            }
        });
        count
    }

    /// A multi-line human-readable summary of the model.
    pub fn summary(&self) -> String {
        self.layers
            .iter()
            .enumerate()
            .map(|(i, l)| format!("{i:3}: {}", l.name()))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Back-propagates `dy` through `layers`, last to first, recycling each
/// intermediate gradient once consumed; `None` if there are no layers
/// (the gradient is still `dy`).
fn backward_through(
    layers: &mut [Box<dyn Layer>],
    dy: &Tensor,
    scratch: &mut Scratch,
) -> Option<Tensor> {
    let mut cur: Option<Tensor> = None;
    for layer in layers.iter_mut().rev() {
        let next = layer.backward_with(cur.as_ref().unwrap_or(dy), scratch);
        if let Some(spent) = cur.replace(next) {
            scratch.recycle(spent);
        }
    }
    cur
}

impl Layer for Sequential {
    fn forward_with(&mut self, x: &Tensor, train: bool, scratch: &mut Scratch) -> Tensor {
        // Each intermediate activation is recycled as soon as the next
        // layer has consumed it, so the whole chain runs out of the
        // pool. (Layers that need state for backward cache it
        // internally — nobody holds on to `cur`.)
        let mut layers = self.layers.iter_mut();
        let Some(first) = layers.next() else {
            return x.clone();
        };
        let mut cur = first.forward_with(x, train, scratch);
        for layer in layers {
            let next = layer.forward_with(&cur, train, scratch);
            scratch.recycle(cur);
            cur = next;
        }
        cur
    }

    fn backward_with(&mut self, dy: &Tensor, scratch: &mut Scratch) -> Tensor {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return dy.clone();
        };
        let cur = backward_through(rest, dy, scratch);
        let dx = first.backward_with(cur.as_ref().unwrap_or(dy), scratch);
        cur.into_iter().for_each(|spent| scratch.recycle(spent));
        dx
    }

    fn backward_params_with(&mut self, dy: &Tensor, scratch: &mut Scratch) {
        // Every layer but the first owes its predecessor a gradient.
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return;
        };
        let cur = backward_through(rest, dy, scratch);
        first.backward_params_with(cur.as_ref().unwrap_or(dy), scratch);
        cur.into_iter().for_each(|spent| scratch.recycle(spent));
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(ParamTensor<'_>)) {
        for layer in &mut self.layers {
            layer.visit_params(visitor);
        }
    }

    fn name(&self) -> String {
        format!("Sequential({} layers)", self.layers.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Conv2d, Flatten, Linear, ReLU};
    use procrustes_prng::Xorshift64;

    fn small_model() -> Sequential {
        let mut rng = Xorshift64::new(1);
        let mut m = Sequential::new();
        m.push(Conv2d::new(1, 2, 3, 1, 1, false, &mut rng));
        m.push(ReLU::new());
        m.push(Flatten::new());
        m.push(Linear::new(2 * 4 * 4, 3, true, &mut rng));
        m
    }

    #[test]
    fn forward_backward_shapes() {
        let mut m = small_model();
        let x = Tensor::ones(&[2, 1, 4, 4]);
        let y = m.forward(&x, true);
        assert_eq!(y.shape().dims(), &[2, 3]);
        let dx = m.backward(&Tensor::ones(&[2, 3]));
        assert_eq!(dx.shape().dims(), &[2, 1, 4, 4]);
    }

    #[test]
    fn params_only_backward_leaves_the_same_gradients() {
        let x = Tensor::randn(&[2, 1, 4, 4], 1.0, &mut Xorshift64::new(2));
        let dy = Tensor::randn(&[2, 3], 1.0, &mut Xorshift64::new(3));
        let grads = |params_only: bool| {
            let mut m = small_model();
            let mut scratch = Scratch::new();
            let y = m.forward_with(&x, true, &mut scratch);
            scratch.recycle(y);
            if params_only {
                m.backward_params_with(&dy, &mut scratch);
            } else {
                let dx = m.backward_with(&dy, &mut scratch);
                scratch.recycle(dx);
            }
            let mut grads = Vec::new();
            m.visit_params(&mut |p| grads.push(p.grads.clone()));
            grads
        };
        assert_eq!(grads(true), grads(false));
        // A lone layer is its own first layer.
        let mut lone = Sequential::new();
        lone.push(Linear::new(3, 2, true, &mut Xorshift64::new(4)));
        let mut scratch = Scratch::new();
        lone.forward_with(&Tensor::ones(&[1, 3]), true, &mut scratch);
        lone.backward_params_with(&Tensor::ones(&[1, 2]), &mut scratch);
        lone.visit_params(&mut |p| assert!(p.grads.sum() != 0.0, "{}", p.name));
    }

    #[test]
    fn param_visitation_is_deterministic() {
        let collect = || {
            let mut m = small_model();
            let mut names = Vec::new();
            m.visit_params(&mut |p| names.push((p.name, p.values.len())));
            names
        };
        assert_eq!(collect(), collect());
        let names = collect();
        assert_eq!(
            names,
            vec![("conv.weight", 18), ("fc.weight", 96), ("fc.bias", 3),]
        );
    }

    #[test]
    fn param_counts() {
        let mut m = small_model();
        assert_eq!(m.prunable_params(), 18 + 96);
        let mut total = 0;
        m.visit_params(&mut |p| total += p.values.len());
        assert_eq!(total, 18 + 96 + 3);
    }

    #[test]
    fn summary_lists_layers() {
        let m = small_model();
        let s = m.summary();
        assert!(s.contains("Conv2d"));
        assert!(s.contains("Linear"));
        assert_eq!(s.lines().count(), 4);
    }
}
